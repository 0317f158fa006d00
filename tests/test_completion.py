import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk.annulus import (AnnulusConfig, gap_coefficient,
                             inner_flux_coefficient, inner_trace_coefficient)
from eitdisk.bie import (NystromMesh, double_layer, modified_double_layer,
                         normal_derivative, solve_forward)
from eitdisk.completion import (assemble_completion, complete_cauchy,
                                recover_gamma_averaged, recover_gamma_lsq,
                                recover_gamma_pointwise)
from eitdisk.exceptions import AllMasked
from eitdisk.geometry import BoundaryCurve
from eitdisk.regularization import RegStrategy, perturb_vector

N = 64


def outer_mesh(n=N):
    return NystromMesh(BoundaryCurve.circle(radius=1.0), n)


def inner_mesh(curve, n=N):
    return NystromMesh(curve, n)


def concentric_system(rho=0.5):
    return assemble_completion(outer_mesh(), inner_mesh(BoundaryCurve.circle(radius=rho)))


def trace_block(outer, inner):
    """The completion's trace system: double-layer densities to the outer
    voltage (negated) and the inner trace."""
    return np.block([
        [np.eye(outer.n) - double_layer(outer, outer), -modified_double_layer(inner, outer)],
        [double_layer(outer, inner), np.eye(inner.n) + modified_double_layer(inner, inner)]])


def annulus_pair(cfg, k, kind=np.cos, n=N):
    """Exact series oracle: outer voltage/current and inner trace/current."""
    t_out = 2 * np.pi * np.arange(n) / n
    f = kind(k * t_out)
    g = (k - gap_coefficient(cfg, k)) * f
    trace = inner_trace_coefficient(cfg, k) * kind(k * t_out)
    flux = inner_flux_coefficient(cfg, k) * kind(k * t_out)
    return f, g, trace, flux


class TestAssembly:
    def test_flux_reproduction_from_oracle_trace(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system(0.5)
        for k in (1, 2, 3, 5):
            f, g, trace, _ = annulus_pair(cfg, k)
            g_pred = system.response @ f + system.completion @ trace
            assert np.max(np.abs(g_pred - g)) < 1e-7, k

    def test_inner_current_maps_from_oracle_trace(self):
        # the inclusion current composed from the voltage and the series
        # trace reproduces the series inner flux
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system(0.5)
        for k in (1, 2, 3, 5):
            f, _, trace, flux = annulus_pair(cfg, k)
            current = system.inner_response @ f + system.inner_completion @ trace
            assert np.max(np.abs(current - flux)) < 1e-6, k

    def test_maps_equal_rows_times_block_inverse(self):
        outer = outer_mesh()
        inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
        system = assemble_completion(outer, inner)
        block = trace_block(outer, inner)
        rows = np.block([
            [normal_derivative(outer, outer),
             normal_derivative(inner, outer, of="modified_double_layer")],
            [-normal_derivative(outer, inner),
             -normal_derivative(inner, inner, of="modified_double_layer")]])
        want = rows @ np.linalg.solve(block, np.eye(2 * N))
        got = np.block([[-system.response, system.completion],
                        [-system.inner_response, system.inner_completion]])
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("curve", [BoundaryCurve.ellipse(0.5, 0.3), BoundaryCurve.cardioid()],
                             ids=["ellipse", "cardioid"])
    def test_schur_maps_match_dense_block_solve(self, curve):
        # unequal node counts, so a transposed block cannot pass
        outer, inner = outer_mesh(64), inner_mesh(curve, 48)
        system = assemble_completion(outer, inner)
        rows = np.block([
            [normal_derivative(outer, outer),
             normal_derivative(inner, outer, of="modified_double_layer")],
            [-normal_derivative(outer, inner),
             -normal_derivative(inner, inner, of="modified_double_layer")]])
        want = la.solve(trace_block(outer, inner).T, rows.T).T
        pieces = {"R": (system.response, -want[:64, :64]),
                  "S": (system.completion, want[:64, 64:]),
                  "R_i": (system.inner_response, -want[64:, :64]),
                  "S_i": (system.inner_completion, want[64:, 64:])}
        for name, (got, ref) in pieces.items():
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() < 1e-10 * np.abs(ref).max(), name

    def test_condition_estimate_three_shapes(self):
        for curve in (BoundaryCurve.circle(radius=0.3),
                      BoundaryCurve.circle(radius=0.5),
                      BoundaryCurve.ellipse(0.5, 0.3),
                      BoundaryCurve.cardioid()):
            system = assemble_completion(outer_mesh(), inner_mesh(curve))
            assert np.isfinite(system.condition)
            assert system.condition < 1e6

    def test_representation_matches_forward_ansatz(self):
        # the completed potential agrees with the simulation representation
        # at interior points once the oracle trace is supplied
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        outer = outer_mesh()
        inner = inner_mesh(BoundaryCurve.circle(radius=0.5))
        k = 2
        f, _, trace, _ = annulus_pair(cfg, k)
        sol = solve_forward(outer, inner, "impedance", f, np.full(N, 2.0))
        pts = np.array([[0.72, 0.1], [-0.2, 0.68], [0.0, -0.8]])
        densities = np.linalg.solve(trace_block(outer, inner), np.concatenate([-f, trace]))
        u_completed = (double_layer(outer, pts) @ densities[:N]
                       + modified_double_layer(inner, pts) @ densities[N:])
        u_forward = sol.potential(pts)
        assert np.max(np.abs(u_completed - u_forward)) < 1e-6

    def test_outer_curve_other_than_unit_circle_rejected(self):
        outer = inner_mesh(BoundaryCurve.ellipse(1.0, 0.9))
        with pytest.raises(ValueError, match="unit measurement circle"):
            assemble_completion(outer, inner_mesh(BoundaryCurve.circle(radius=0.3)))

    @pytest.mark.parametrize("curve", [BoundaryCurve.circle(radius=1.2),
                                       BoundaryCurve.circle((0.5, 0.0), 0.6)])
    def test_inclusion_reaching_unit_circle_rejected(self, curve):
        with pytest.raises(ValueError, match="inside the unit measurement circle"):
            assemble_completion(outer_mesh(), inner_mesh(curve))

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    def test_model_error_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(ValueError, match=f"not {factor}"):
            assemble_completion(outer_mesh(8), inner_mesh(BoundaryCurve.circle(radius=0.5), 8),
                                model_error_factor=factor)


class TestCompleteCauchy:
    def test_recovers_trace_noiseless(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system()
        reg = RegStrategy.tikhonov_discrepancy(1e-8)
        f, g, trace, flux = annulus_pair(cfg, 1)
        got_trace, got_flux, _ = complete_cauchy(system, f, g, reg)
        assert (np.linalg.norm(got_trace - trace)
                / np.linalg.norm(trace)) < 1e-3
        assert (np.linalg.norm(got_flux - flux)
                / np.linalg.norm(flux)) < 1e-2

    def test_constant_voltage_gives_constant_trace(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system()
        f, g, trace, _ = annulus_pair(cfg, 0, kind=lambda x: np.ones_like(x))
        got_trace, _, _ = complete_cauchy(system, f, g,
                                          RegStrategy.tikhonov_discrepancy(1e-8))
        spread = np.ptp(got_trace) / np.abs(got_trace).mean()
        assert spread < 1e-3
        assert abs(got_trace.mean() - trace.mean()) < 1e-3

    def test_zero_data_zero_trace(self):
        system = concentric_system()
        trace, flux, _ = complete_cauchy(system, np.zeros(N), np.zeros(N),
                                         RegStrategy.tikhonov(1e-6))
        assert np.linalg.norm(trace) < 1e-10
        assert np.linalg.norm(flux) < 1e-10

    def test_data_off_the_outer_mesh_rejected(self):
        system = concentric_system()
        with pytest.raises(ValueError, match="outer mesh"):
            complete_cauchy(system, np.ones(N - 1), np.ones(N - 1), RegStrategy.tikhonov(1e-6))
        with pytest.raises(ValueError, match="outer mesh"):
            complete_cauchy(system, np.ones(N), np.ones(N + 1), RegStrategy.tikhonov(1e-6))
        with pytest.raises(ValueError):
            recover_gamma_averaged(system, np.ones((3, N)), np.ones((2, N)),
                                   RegStrategy.tikhonov(1e-6))

    def test_noise_dominated_pair_completes_to_zero(self):
        # at mode eight the inclusion's footprint in the data sits far below
        # four percent noise; the completion reports that instead of fitting
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system()
        f, g, _, _ = annulus_pair(cfg, 8)
        noisy = perturb_vector(g, 0.04, 3)
        trace, flux, info = complete_cauchy(
            system, f, noisy, RegStrategy.tikhonov_discrepancy(0.04), noise_level=0.04)
        assert info["noise_dominated"]
        assert np.all(trace == 0) and np.all(flux == 0)

    def test_dirichlet_inclusion_detected_by_small_trace(self):
        # grounded inclusion: the completion equation carries essentially no
        # trace signal, and both the noise-floor path and an actual solve
        # report a near-zero inclusion potential
        cfg = AnnulusConfig(0.5, "dirichlet")
        system = concentric_system()
        f, g, _, _ = annulus_pair(cfg, 2)
        trace, _, info = complete_cauchy(system, f, g,
                                         RegStrategy.tikhonov_discrepancy(1e-8))
        assert info["noise_dominated"]
        assert np.abs(trace).max() < 0.05 * np.abs(f).max()
        # the smallest alpha the discrepancy principle can choose
        alpha = 1e-14 * system.svd.s[0] ** 2
        trace, _, info = complete_cauchy(system, f, g,
                                         RegStrategy.tikhonov(alpha))
        assert not info["noise_dominated"]
        assert np.abs(trace).max() < 0.05 * np.abs(f).max()


class TestGammaPointwise:
    def test_constant_quotient(self):
        theta = 2 * np.pi * np.arange(8) / 8
        recon = recover_gamma_pointwise(np.ones(8), -2.0 * np.ones(8), theta)
        assert np.allclose(recon.average, 2.0)
        assert recon.unmasked().all()

    def test_zero_crossing_masked(self):
        theta = 2 * np.pi * np.arange(N) / N
        trace = np.cos(theta)
        current = -2.0 * trace
        recon = recover_gamma_pointwise(trace, current, theta, tol_rel=0.05)
        near_zero = np.abs(trace) < 0.05
        assert np.all(np.isnan(recon.average[near_zero]))
        assert np.allclose(recon.average[~near_zero], 2.0)

    def test_all_masked_raises(self):
        theta = np.arange(4.0)
        with pytest.raises(AllMasked):
            recover_gamma_pointwise(np.zeros(4), np.ones(4), theta)

    def test_end_to_end_concentric(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system()
        reg = RegStrategy.tikhonov_discrepancy(1e-8)
        f, g, _, _ = annulus_pair(cfg, 2)
        trace, flux, _ = complete_cauchy(system, f, g, reg)
        recon = recover_gamma_pointwise(trace, flux, system.inner.theta)
        keep = recon.unmasked()
        assert np.max(np.abs(recon.average[keep] - 2.0)) / 2.0 < 1e-2


class TestGammaLsq:
    def test_constant_basis(self):
        theta = 2 * np.pi * np.arange(8) / 8
        coef, evaluate = recover_gamma_lsq([np.ones(8)], [-2.0 * np.ones(8)],
                                           theta, degree=0)
        assert abs(coef[0] - 2.0) < 1e-12
        assert np.allclose(evaluate(theta), 2.0)

    def test_duplicated_pairs_leave_fit_unchanged(self):
        theta = 2 * np.pi * np.arange(16) / 16
        trace = 1.0 + 0.3 * np.cos(theta)
        gamma = 2.0 - np.sin(theta) ** 2
        current = -gamma * trace
        c1, _ = recover_gamma_lsq([trace], [current], theta, degree=2)
        c2, _ = recover_gamma_lsq([trace, trace], [current, current], theta, degree=2)
        assert np.allclose(c1, c2)

    def test_variable_gamma_sixteen_pairs(self):
        # degree-4 basis represents 2 - sin^4 exactly;
        # noiseless simulated data recovers it to a percent
        outer = outer_mesh()
        inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
        gamma = 2.0 - np.sin(inner.theta) ** 4
        system = assemble_completion(outer, inner)
        reg = RegStrategy.tikhonov_discrepancy(1e-8)
        traces, currents = [], []
        for k in range(1, 9):
            for fn in (np.cos, np.sin):
                f = fn(k * outer.theta)
                g = solve_forward(outer, inner, "impedance", f, gamma).outer_flux()
                trace, flux, _ = complete_cauchy(system, f, g, reg)
                traces.append(trace)
                currents.append(flux)
        _, evaluate = recover_gamma_lsq(traces, currents, inner.theta, degree=4)
        got = evaluate(inner.theta)
        assert np.max(np.abs(got - gamma)) / 2.0 < 0.02


class TestGammaAveraged:
    def make_pairs(self, system, gamma, noise=0.0, seed=0):
        """Voltages and currents of sixteen pairs, one row each."""
        outer = system.outer
        inner = system.inner
        voltages, currents = [], []
        for k in range(1, 9):
            for fn in (np.cos, np.sin):
                f = fn(k * outer.theta)
                g = solve_forward(outer, inner, "impedance", f, gamma).outer_flux()
                if noise:
                    g = perturb_vector(g, noise, (seed, len(currents)))
                voltages.append(f)
                currents.append(g)
        return np.array(voltages), np.array(currents)

    def test_noiseless_concentric(self):
        system = concentric_system()
        gamma = np.full(N, 2.0)
        voltages, currents = self.make_pairs(system, gamma)
        recon = recover_gamma_averaged(system, voltages, currents,
                                       RegStrategy.tikhonov_discrepancy(1e-8))
        keep = recon.unmasked()
        assert np.max(np.abs(recon.average[keep] - 2.0)) / 2.0 < 1e-2

    def test_single_pair_matches_pointwise(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        system = concentric_system()
        reg = RegStrategy.tikhonov_discrepancy(1e-8)
        f, g, _, _ = annulus_pair(cfg, 1)
        single = recover_gamma_averaged(system, [f], [g], reg)
        trace, flux, _ = complete_cauchy(system, f, g, reg)
        direct = recover_gamma_pointwise(trace, flux, system.inner.theta)
        assert np.array_equal(single.average, direct.average, equal_nan=True)

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(range(16)))
    def test_pair_order_invariance(self, order):
        system = concentric_system()
        gamma = np.full(N, 2.0)
        voltages, currents = self.make_pairs(system, gamma, noise=0.04, seed=5)
        reg = RegStrategy.cutoff_by_noise(0.04, safety=2.0)
        a = recover_gamma_averaged(system, voltages, currents, reg, 0.04, tol_rel=0.2)
        order = list(order)
        b = recover_gamma_averaged(system, voltages[order], currents[order], reg, 0.04,
                                   tol_rel=0.2)
        assert np.array_equal(a.average, b.average, equal_nan=True)
        assert np.array_equal(a.spread, b.spread, equal_nan=True)
        assert np.array_equal(a.counts, b.counts)

    def test_residual_certificate_holds_on_noisy_completions(self):
        # accepted completions predict the measured current to within the
        # guard multiple of the declared noise magnitude
        from eitdisk.regularization import expected_noise_norm
        outer = outer_mesh()
        inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
        gamma = 2.0 - np.sin(inner.theta) ** 4
        system = assemble_completion(outer, inner)
        reg = RegStrategy.cutoff_by_noise(0.04, safety=2.0)
        f = np.cos(outer.theta)
        g = solve_forward(outer, inner, "impedance", f, gamma).outer_flux()
        g = perturb_vector(g, 0.04, 99)
        trace, _, info = complete_cauchy(system, f, g, reg, noise_level=0.04)
        assert not info["noise_dominated"]
        b = g - system.response @ f
        residual = np.linalg.norm(system.completion @ trace - b)
        assert residual <= 10.0 * expected_noise_norm(g, 0.04)

    def test_noisy_ellipse_within_quarter(self):
        outer = outer_mesh()
        inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
        gamma = 2.0 - np.sin(inner.theta) ** 4
        system = assemble_completion(outer, inner)
        voltages, currents = self.make_pairs(system, gamma, noise=0.04, seed=0)
        recon = recover_gamma_averaged(system, voltages, currents,
                                       RegStrategy.cutoff_by_noise(0.04, safety=2.0),
                                       noise_level=0.04, tol_rel=0.2)
        diff = np.where(recon.unmasked(), recon.average - gamma, 0.0)
        assert np.linalg.norm(diff) / np.linalg.norm(gamma) < 0.25
