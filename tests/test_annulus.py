import numpy as np
import pytest

from eitdisk.annulus import (AnnulusConfig, gap_coefficient, gap_operator,
                             inner_flux_coefficient, inner_trace_coefficient,
                             reflection_coefficient, truncation_error)


class TestDtnMaps:
    def test_gap_constant_dirichlet(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        assert abs(gap_coefficient(cfg, 0) - 1 / np.log(0.5)) < 1e-15
        assert abs(1 / np.log(0.5) + 1.4426950408889634) < 1e-15

    def test_gap_first_mode_dirichlet(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        assert abs(gap_coefficient(cfg, 1) + 2.0 / 3.0) < 1e-15

    def test_gap_vanishing_inclusion(self):
        assert abs(gap_coefficient(AnnulusConfig(1e-6, "dirichlet"), 1)) < 1e-11

class TestImpedanceCoefficients:
    def test_reflection_zero(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        assert reflection_coefficient(cfg, 1) == 0.0

    def test_insulated_limit(self):
        cfg = AnnulusConfig(0.5, "impedance", 0.0)
        for n in (1, 2, 7):
            assert reflection_coefficient(cfg, n) == 1.0

    def test_sigma0_derived_value(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        want = -2.0 / (2.0 - 2.0 * np.log(0.5))
        got = reflection_coefficient(cfg, 0)
        assert abs(got - want) < 1e-15
        assert abs(want + 0.5906161091496412) < 1e-12

    def test_sigma0_against_two_point_system(self):
        # independent oracle: solve the constant-mode boundary conditions
        # for u = a + b ln r directly as a 2x2 linear system
        rho, g = 0.35, 1.7
        sys = np.array([[1.0, 0.0],                       # u(1) = 1
                        [g, g * np.log(rho) - 1 / rho]])  # -u'(rho) + g u(rho) = 0
        a, b = np.linalg.solve(sys, [1.0, 0.0])
        # gap coefficient: healthy current 0 minus annulus current b at r=1
        cfg = AnnulusConfig(rho, "impedance", g)
        assert abs(reflection_coefficient(cfg, 0) - (-b)) < 1e-14

    def test_sigma0_printed_fails_conducting_limit(self):
        cfg = AnnulusConfig(0.5, "impedance", 1e8)
        derived = reflection_coefficient(cfg, 0)
        printed = reflection_coefficient(cfg, 0, printed=True)
        dirichlet = 1 / np.log(0.5)
        assert abs(derived - dirichlet) < 1e-7
        assert abs(printed - dirichlet) > 1e6

    def test_gap_invisible_mode(self):
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        assert gap_coefficient(cfg, 1) == 0.0

    def test_gap_insulated_value(self):
        cfg = AnnulusConfig(0.5, "impedance", 0.0)
        assert abs(gap_coefficient(cfg, 1) - 0.4) < 1e-15

    def test_gap_conducting_limit_matches_dirichlet(self):
        for rho in (0.25, 0.5):
            hi = AnnulusConfig(rho, "impedance", 1e8)
            dir_cfg = AnnulusConfig(rho, "dirichlet")
            for n in range(1, 11):
                a, b = gap_coefficient(hi, n), gap_coefficient(dir_cfg, n)
                assert abs(a - b) / abs(b) < 1e-6

    def test_mode_decay_bound(self):
        # |gap_n| <= C rho^(2n) with C fitted at n = 1
        for cfg in (AnnulusConfig(0.5, "dirichlet"),
                    AnnulusConfig(0.5, "impedance", 2.0)):
            c1 = abs(gap_coefficient(cfg, 1)) / cfg.rho**2
            c1 = max(c1, 4.0)  # the impedance case has gap_1 = 0 at this gamma
            for n in range(2, 16):
                assert abs(gap_coefficient(cfg, n)) <= 1.05 * c1 * n * cfg.rho ** (2 * n)

    def test_inner_trace_and_flux_satisfy_robin(self):
        cfg = AnnulusConfig(0.4, "impedance", 1.3)
        for n in range(0, 9):
            tr = inner_trace_coefficient(cfg, n)
            fl = inner_flux_coefficient(cfg, n)
            assert abs(fl + cfg.gamma * tr) < 1e-14


class TestKernelAndTruncation:
    def test_truncation_zero_width(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        assert truncation_error(cfg, 7, 7) == 0.0

    def test_truncation_ratio_near_rho_squared(self):
        cfg = AnnulusConfig(0.5, "dirichlet", order=40)
        for n in range(5, 16):
            ratio = (truncation_error(cfg, n, n + 1)
                     / truncation_error(cfg, n + 1, n + 2))
            assert 0.5 / cfg.rho**2 < ratio < 2.0 / cfg.rho**2

    def test_truncation_monotone_in_rho(self):
        a = AnnulusConfig(0.25, "dirichlet", order=40)
        b = AnnulusConfig(0.5, "dirichlet", order=40)
        for n in range(1, 15):
            assert truncation_error(a, n, n + 1) < truncation_error(b, n, n + 1)


class TestGapOperator:
    def test_fourier_operator_is_diagonal(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        op = gap_operator(cfg, basis="fourier")
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) == 0.0
        idx = list(op.modes).index(1)
        assert abs(op.matrix[idx, idx] + 2.0 / 3.0) < 1e-15

    def test_fourier_operator_truncates_at_the_order(self):
        cfg = AnnulusConfig(0.5, "dirichlet", order=2)
        modes = np.arange(-6, 7)
        diag = np.diag(gap_operator(cfg, basis="fourier", modes=modes).matrix)
        assert np.all(diag[np.abs(modes) > 2] == 0.0)
        assert np.all(diag[np.abs(modes) <= 2] != 0.0)

    def test_collocation_applies_series(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        op = gap_operator(cfg, basis="collocation", n=64)
        t = 2 * np.pi * np.arange(64) / 64
        for m in (0, 1, 4):
            got = op.matrix @ np.cos(m * t)
            want = gap_coefficient(cfg, m) * np.cos(m * t)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_collocation_symmetric(self):
        op = gap_operator(AnnulusConfig(0.5, "dirichlet"), basis="collocation", n=64)
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-15
