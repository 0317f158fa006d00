import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk import regularization, sampling
from eitdisk.annulus import AnnulusConfig, gap_operator
from eitdisk.dtn import DtnOperator
from eitdisk.exceptions import (AllModesCutWarning, DegenerateFit, NoContour,
                                NoiseDominates, SeveralLoopsWarning, SingularSystem,
                                TooCloseToBoundary)
from eitdisk.geometry import fourier_analyze
from eitdisk.regularization import RegStrategy, SvdFactorization, regularized_solve
from eitdisk.sampling import (GridSpec, IndicatorGrid, extract_level_set,
                              fit_trig_curve, indicator, poisson_kernel,
                              poisson_rhs, scan)
from conftest import _use_cpus
from test_regularization import (bisection_alpha, frozen_discrepancy_root,
                                 frozen_table_root, right_starts)

DIRICHLET = AnnulusConfig(0.5, "dirichlet")


def colloc_gap(rho=0.5, n=64):
    return gap_operator(AnnulusConfig(rho, "dirichlet"), basis="collocation", n=n)


LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def accuracy_points():
    """300 points inside the mask, 60 of them within 1e-3 of its radius."""
    rng = np.random.Generator(np.random.Philox(123))
    rad = np.concatenate([0.9 * np.sqrt(rng.uniform(0, 1, 240)),
                          0.9 - rng.uniform(0, 1e-3, 60)])
    ang = rng.uniform(-np.pi, np.pi, 300)
    return rad * np.cos(ang), rad * np.sin(ang)


class TestPoissonKernel:
    def test_center_is_uniform(self):
        t = np.linspace(0, 2 * np.pi, 9)
        vals = poisson_kernel((0.0, 0.0), t)
        assert np.allclose(vals, 1.0 / (2 * np.pi))

    def test_pointwise_value(self):
        got = poisson_kernel((0.5, 0.0), 0.0)
        assert abs(got - 3.0 / (2 * np.pi)) < 1e-15
        assert abs(got - 0.477464829275686) < 1e-12

    def test_normalization(self):
        t = 2 * np.pi * np.arange(256) / 256
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(6):
            r = rng.uniform(0, 0.8)
            a = rng.uniform(0, 2 * np.pi)
            z = (r * np.cos(a), r * np.sin(a))
            integral = poisson_kernel(z, t).sum() * (2 * np.pi / 256)
            assert abs(integral - 1.0) < 1e-12

    def test_coefficients_match_closed_form(self):
        t = 2 * np.pi * np.arange(256) / 256
        for r in (0.3, 0.8):
            for a in (0.0, 1.1):
                z = (r * np.cos(a), r * np.sin(a))
                d = fourier_analyze(poisson_kernel(z, t), 10)
                for n in range(-10, 11):
                    want = r ** abs(n) * np.exp(-1j * n * a) / (2 * np.pi)
                    assert abs(d.coefficient(n) - want) < 1e-10

    def test_rhs_masks_near_boundary(self):
        with pytest.raises(TooCloseToBoundary):
            poisson_rhs((0.95, 0.0), colloc_gap())

    @pytest.mark.parametrize("width", [1, 17, 8192])
    def test_collocation_rhs_is_the_closed_form_bit_for_bit(self, width):
        gap = colloc_gap()
        rng = np.random.Generator(np.random.Philox(width))
        rad, ang = 0.9 * np.sqrt(rng.uniform(0, 1, width)), rng.uniform(-np.pi, np.pi, width)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        x, y, theta = pts[:, 0], pts[:, 1], gap.nodes
        want = (1.0 - (x * x + y * y))[None, :] / (
            2.0 * np.pi * ((np.cos(theta)[:, None] - x[None, :]) ** 2
                           + (np.sin(theta)[:, None] - y[None, :]) ** 2))
        got = sampling._rhs_columns(gap, pts)
        assert got.shape == (gap.n, width) and got.tobytes() == want.tobytes()

    def test_collocation_rhs_is_accurate_near_the_mask(self):
        # a fifth of the points lie within 1e-3 of the mask radius, where the
        # kernel's denominator falls to about 1e-2 and can lose digits
        x, y = accuracy_points()
        gap = colloc_gap()
        got = sampling._rhs_columns(gap, np.column_stack([x, y]))
        theta, x, y = (v.astype(np.longdouble) for v in (gap.nodes, x, y))
        want = (1 - (x * x + y * y))[None, :] / (
            2 * LONG_PI * ((np.cos(theta)[:, None] - x) ** 2 + (np.sin(theta)[:, None] - y) ** 2))
        assert float(np.max(abs(got - want) / want)) <= 3e-15

    @pytest.mark.parametrize("modes", [np.arange(-19, 20), np.arange(20),
                                       np.array([3, -7, 0, 19, -19, 1, 12, -2])],
                             ids=["symmetric", "one-sided", "unsorted"])
    def test_fourier_rhs_is_accurate(self, modes):
        # after the accuracy points: z = 0, then three points on the mask radius
        x, y = accuracy_points()
        x = np.concatenate([x, [0.0, 0.9, 0.0, -0.9 * np.sqrt(0.5)]])
        y = np.concatenate([y, [0.0, 0.0, -0.9, 0.9 * np.sqrt(0.5)]])
        gap = DtnOperator("fourier", np.eye(len(modes)), modes)
        got = sampling._rhs_columns(gap, np.column_stack([x, y]))
        assert got[:, -4].tolist() == [1 / (2 * np.pi) if m == 0 else 0 for m in modes]
        # |z|^|m| exp(-i m arg z) / (2 pi) with the long-double pi
        got, x, y = np.delete(got, -4, axis=1), np.delete(x, -4), np.delete(y, -4)
        x, y, m = x.astype(np.longdouble), y.astype(np.longdouble), modes.astype(np.longdouble)
        size = np.sqrt(x * x + y * y)[None, :] ** abs(m)[:, None] / (2 * LONG_PI)
        phase = -m[:, None] * np.arctan2(y, x)[None, :]
        err = np.hypot(got.real - size * np.cos(phase), got.imag - size * np.sin(phase))
        assert float(np.max(err / size)) <= 1.5e-15


class TestCurrentGap:
    def test_center_mode_zero(self):
        # at z = 0 only the constant mode is driven:
        # f_0 = (1/2pi) / (1/ln rho) = ln(0.5)/(2 pi)
        gap = gap_operator(DIRICHLET, basis="fourier")
        x, _ = regularized_solve(SvdFactorization.from_matrix(gap.matrix),
                                 poisson_rhs((0.0, 0.0), gap), RegStrategy.none())
        idx = list(gap.modes).index(0)
        want = np.log(0.5) / (2 * np.pi)
        assert abs(x[idx] - want) < 1e-12
        assert abs(want + 0.11031780007632582) < 1e-15
        mask = np.arange(len(x)) != idx
        assert np.max(np.abs(x[mask])) < 1e-14

    def test_norm_grows_outside(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        svd, reg = SvdFactorization.from_matrix(gap.matrix), RegStrategy.none()
        x_in, _ = regularized_solve(svd, poisson_rhs((0.2, 0.0), gap), reg)
        x_out, _ = regularized_solve(svd, poisson_rhs((0.7, 0.0), gap), reg)
        assert np.linalg.norm(x_out) / np.linalg.norm(x_in) > 10

    def test_singular_unregularized_raises(self):
        op = colloc_gap()  # band-limited, hence rank deficient on 64 nodes
        with pytest.raises(SingularSystem):
            regularized_solve(SvdFactorization.from_matrix(op.matrix),
                              poisson_rhs((0.2, 0.0), op), RegStrategy.none())


class TestIndicator:
    def test_ratio_inside_outside(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        reg = RegStrategy.tikhonov(1e-12)
        assert indicator(gap, (0.2, 0.0), reg) / indicator(gap, (0.7, 0.0), reg) > 10

    def test_homogeneity_under_operator_scaling(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        doubled = replace(gap, matrix=2.0 * gap.matrix)
        reg = RegStrategy.none()
        w1 = indicator(gap, (0.3, 0.1), reg)
        w2 = indicator(doubled, (0.3, 0.1), reg)
        assert abs(w2 - 2.0 * w1) < 1e-12 * w1

    def test_rotation_invariance(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        reg = RegStrategy.tikhonov(1e-8)
        vals = [indicator(gap, (0.4 * np.cos(a), 0.4 * np.sin(a)), reg)
                for a in np.linspace(0, 2 * np.pi, 7)]
        assert np.max(np.abs(np.diff(vals))) < 1e-8 * vals[0]

    def test_monotone_along_ray(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        reg = RegStrategy.tikhonov_discrepancy(0.02)
        rs = np.linspace(0.55, 0.9, 10)
        vals = [indicator(gap, (r, 0.0), reg) for r in rs]
        assert np.all(np.diff(vals) <= 1e-12)


class TestScan:
    def test_single_cell_grid_matches_indicator(self):
        gap = gap_operator(DIRICHLET, basis="fourier")
        reg = RegStrategy.tikhonov(1e-6)
        grid = GridSpec(2, 2, 0.1, 0.2, 0.0, 0.1)
        out = scan(gap, grid, reg)
        want = indicator(gap, (0.1, 0.0), reg)
        assert abs(out.values[0, 0] - want) < 1e-12

    @pytest.mark.parametrize("bounds, named", [
        ((0.5, 0.5, -0.5, 0.5), "xmin=0.5 and xmax=0.5"),
        ((0.5, -0.5, -0.5, 0.5), "xmin=0.5 and xmax=-0.5"),
        ((-0.5, 0.5, np.nan, 0.5), "ymin=nan"),
        ((-0.5, 0.5, -0.5, np.inf), "ymax=inf"),
    ])
    def test_grid_bounds_must_be_finite_and_increasing(self, bounds, named):
        with pytest.raises(ValueError, match=named):
            GridSpec(3, 3, *bounds)

    def test_grid_without_unmasked_points_rejected(self):
        # all four corners of the default square lie beyond the mask radius
        with pytest.raises(ValueError, match=r"2x2 grid lies within the mask radius 0\.9"):
            scan(colloc_gap(), GridSpec.square(2), RegStrategy.tikhonov(1e-6))

    def test_unmasked_points_only(self):
        gap = colloc_gap()
        out = scan(gap, GridSpec.square(21), RegStrategy.tikhonov(1e-6))
        pts = out.spec.points().reshape(21, 21, 2)
        r = np.hypot(pts[..., 0], pts[..., 1])
        assert np.all(np.isnan(out.values[r > 0.9]))
        assert not np.any(np.isnan(out.values[r <= 0.9]))

    def test_seeded_noise_is_reproducible(self):
        gap = colloc_gap()
        reg = RegStrategy.tikhonov_discrepancy(0.05)
        a = scan(gap, GridSpec.square(15), reg, noise=(0.05, 11))
        b = scan(gap, GridSpec.square(15), reg, noise=(0.05, 11))
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_contrast_with_noise(self):
        gap = colloc_gap(rho=0.5)
        reg = RegStrategy.tikhonov_discrepancy(0.05, 1.5)
        out = scan(gap, GridSpec.square(41), reg, noise=(0.05, 1))
        pts = out.spec.points()
        r = np.hypot(pts[:, 0], pts[:, 1]).reshape(41, 41)
        inside = np.nanmean(out.values[r < 0.45])
        outside = np.nanmean(out.values[(r > 0.6) & (r < 0.9)])
        assert inside / outside > 2

    def test_noiseless_beats_noisy_contrast(self):
        gap = colloc_gap(rho=0.5)
        reg = RegStrategy.tikhonov_discrepancy(0.05, 1.5)
        grid = GridSpec.square(31)

        def contrast(out):
            pts = out.spec.points()
            r = np.hypot(pts[:, 0], pts[:, 1]).reshape(31, 31)
            return (np.nanmean(out.values[r < 0.45])
                    / np.nanmean(out.values[(r > 0.6) & (r < 0.9)]))

        assert contrast(scan(gap, grid, reg)) > contrast(
            scan(gap, grid, reg, noise=(0.05, 1)))

    @pytest.mark.parametrize("basis", ["collocation", "fourier"])
    def test_noisy_scan_ignores_earlier_indicator_calls(self, basis):
        # an indicator call on the clean gap must not leave a decomposition
        # behind that a later noisy scan of the same gap reuses
        reg = RegStrategy.tikhonov_discrepancy(0.05)
        grid = GridSpec.square(9)
        fresh = scan(basis_gap(basis), grid, reg, noise=(0.05, 1))
        gap = basis_gap(basis)
        indicator(gap, (0.2, 0.0), reg)
        after = scan(gap, grid, reg, noise=(0.05, 1))
        assert np.array_equal(after.values, fresh.values, equal_nan=True)

    def test_discrepancy_alpha_columns_match_scalar_path(self):
        gap = colloc_gap()
        reg = RegStrategy.tikhonov_discrepancy(0.03, 1.5)
        grid = GridSpec(2, 2, 0.15, 0.3, -0.1, 0.25)
        out = scan(gap, grid, reg)
        for (i, j), z in [((0, 0), (0.15, -0.1)), ((1, 1), (0.3, 0.25))]:
            assert abs(out.values[i, j] - indicator(gap, z, reg)) < 1e-9


def basis_gap(basis):
    if basis == "collocation":
        return colloc_gap()
    return gap_operator(DIRICHLET, basis="fourier")


SCAN_STRATEGIES = {
    "none": RegStrategy.none(),
    "tikhonov": RegStrategy.tikhonov(1e-6),
    "discrepancy": RegStrategy.tikhonov_discrepancy(0.03),
    "cutoff": RegStrategy.spectral_cutoff(1e-3),
    "cutoff_by_noise": RegStrategy.cutoff_by_noise(0.3),
}


class TestScanMatchesIndicator:
    @pytest.mark.parametrize("basis", ["collocation", "fourier"])
    @pytest.mark.parametrize("name", sorted(SCAN_STRATEGIES))
    @settings(max_examples=3, deadline=None)
    @given(x0=st.floats(-0.9, 0.3), y0=st.floats(-0.9, 0.3))
    def test_every_strategy_and_basis(self, basis, name, x0, y0):
        gap = basis_gap(basis)
        reg = SCAN_STRATEGIES[name]
        grid = GridSpec(4, 3, x0, x0 + 0.6, y0, y0 + 0.6)
        if name == "none" and basis == "collocation":
            # the band-limited collocation gap is singular
            with pytest.raises(SingularSystem):
                scan(gap, grid, reg)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllModesCutWarning)
            out = scan(gap, grid, reg)
            for z, w, inside in zip(grid.points(), out.values.ravel(), out.mask.ravel()):
                if not inside:
                    continue
                want = indicator(gap, z, reg)
                if np.isnan(want):
                    assert np.isnan(w)
                else:
                    assert abs(w - want) <= 1e-12 * want

    def test_indicator_all_modes_cut_is_nan(self):
        with pytest.warns(AllModesCutWarning) as caught:
            w = indicator(colloc_gap(), (0.7, 0.0), RegStrategy.cutoff_by_noise(0.9))
        assert np.isnan(w)
        assert len(caught) == 1

    def test_noise_tied_cutoff_scan_cuts_some_points_once(self):
        # the noise-tied threshold grows with |b|, so only some points lose
        # every mode; the scan reports them as NaN with a single warning
        gap = colloc_gap()
        reg = RegStrategy.cutoff_by_noise(0.3)
        with pytest.warns(AllModesCutWarning) as caught:
            out = scan(gap, GridSpec.square(9), reg)
        assert len(caught) == 1
        cut = np.isnan(out.values) & out.mask
        assert 0 < cut.sum() < out.mask.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllModesCutWarning)
            for z, w in zip(out.spec.points()[cut.ravel()], out.values[cut]):
                assert np.isnan(indicator(gap, z, reg)) and np.isnan(w)

    @pytest.mark.parametrize("basis", ["collocation", "fourier"])
    def test_chunked_scan_matches_one_piece(self, monkeypatch, basis):
        gap = basis_gap(basis)
        reg = RegStrategy.tikhonov_discrepancy(0.05)
        grid = GridSpec.square(15)
        whole = scan(gap, grid, reg, noise=(0.05, 3))
        monkeypatch.setattr(sampling, "_CHUNK", 16)
        assert whole.mask.sum() > 4 * sampling._CHUNK
        pieces = scan(gap, grid, reg, noise=(0.05, 3))
        assert np.allclose(pieces.values, whole.values, rtol=1e-12, atol=0,
                           equal_nan=True)


def record_slices(monkeypatch, meet=False):
    """Record the thread and width of every ``_slice_norms`` call, in call
    order.  With ``meet``, the first two calls wait up to 10 s for each
    other, so a scan whose slices do not run on two threads at once fails."""
    calls, lock, barrier = [], threading.Lock(), threading.Barrier(2, timeout=10)
    real = sampling._slice_norms

    def recorded(svd, reg, beta2, b2):
        with lock:
            calls.append((threading.get_ident(), len(b2)))
            first_two = len(calls) <= 2
        if meet and first_two:
            barrier.wait()
        return real(svd, reg, beta2, b2)

    monkeypatch.setattr(sampling, "_slice_norms", recorded)
    return calls


def record_pools(monkeypatch):
    """The worker count of every pool the scan starts, in order."""
    pools = []

    def recording_pool(workers):
        pools.append(workers)
        return ThreadPoolExecutor(workers)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", recording_pool)
    return pools


def inside_count(grid):
    return int(np.sum(np.hypot(*grid.points().T) <= sampling.RADIUS_MASK))


class TestScanThreads:
    @pytest.mark.parametrize("basis", ["collocation", "fourier"])
    # "none" is left out: the band-limited collocation gap is singular
    @pytest.mark.parametrize("name", ["discrepancy", "cutoff", "tikhonov", "cutoff_by_noise"])
    @pytest.mark.parametrize("chunk", [sampling._CHUNK, 100])
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, basis, name, chunk):
        gap = basis_gap(basis)
        reg = SCAN_STRATEGIES[name]
        grid = GridSpec.square(23)
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        # only the noise-tied cutoff on the collocation gap cuts every mode
        # at some points, and then each scan warns once
        cuts = (name, basis) == ("cutoff_by_noise", "collocation")

        def checked_scan():
            if not cuts:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", AllModesCutWarning)
                    return scan(gap, grid, reg, noise=(0.05, 5))
            with pytest.warns(AllModesCutWarning) as caught:
                out = scan(gap, grid, reg, noise=(0.05, 5))
            assert len(caught) == 1
            return out

        default = checked_scan()
        for cpus in (1, 3):
            with pytest.MonkeyPatch.context() as patch:
                _use_cpus(patch, cpus)
                slices = record_slices(patch, meet=cpus > 1)
                out = checked_scan()
            assert np.array_equal(out.values, default.values, equal_nan=True)
            assert len(slices) > 2 * len(range(0, inside_count(grid), chunk))
            assert (len({thread for thread, _ in slices}) > 1) == (cpus > 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    # the README's 101x101 sample on its circle's gap (one block), and blocks of 200
    @pytest.mark.parametrize("size, chunk", [(101, sampling._CHUNK), (41, 200)])
    def test_scan_keeps_the_bits_of_the_frozen_root(self, monkeypatch, cpus, size, chunk):
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        reg, grid = RegStrategy.tikhonov_discrepancy(0.05, 1.5), GridSpec.square(size)
        out = scan(colloc_gap(), grid, reg, noise=(0.05, 1))
        assert (out.mask.sum() <= chunk) == (size == 101)
        # the frozen root forms its own table on each slice, as the kernel does
        _use_cpus(monkeypatch, 1)
        monkeypatch.setattr(regularization, "_discrepancy_root", frozen_table_root)
        want = scan(colloc_gap(), grid, reg, noise=(0.05, 1))
        assert out.values.tobytes() == want.values.tobytes()

    def test_root_on_the_fine_grid_scan_agrees_with_bisection(self):
        # the 401x401 scan of the README's circle: its roots against a 60-step
        # bisection and against the root that 8 bisection steps bracketed
        gap, reg = colloc_gap(), RegStrategy.tikhonov_discrepancy(0.05, 1.5)
        svd = SvdFactorization.from_matrix(regularization.perturb_matrix(gap.matrix, 0.05, 3))
        s2 = svd.s[:, None] ** 2
        pts = GridSpec.square(401).points()
        pts = pts[np.hypot(*pts.T) <= sampling.RADIUS_MASK]
        right = 0
        for a in range(0, len(pts), sampling._CHUNK):
            b = sampling._rhs_columns(gap, pts[a:a + sampling._CHUNK])
            beta2 = sampling._abs2(svd.project(b))
            b2 = sampling._abs2(b).sum(axis=0)
            b_perp2 = regularization._orthogonal_part(svd, beta2, b2)
            t2 = regularization._target(reg, b2, None) ** 2
            alpha = regularization._discrepancy_root(s2, beta2, b_perp2, b2, t2)
            for want in (bisection_alpha(svd.s, beta2, b2, t2),
                         frozen_discrepancy_root(s2, beta2, b_perp2, b2, t2)):
                assert np.all(np.abs(alpha - want) <= 1e-14 * want)
            right += right_starts(s2, beta2, b_perp2, t2).sum()
        assert right > 0

    def test_worker_count_follows_usable_cpus(self, monkeypatch):
        # one thread per usable CPU, at most one per slice
        pools = record_pools(monkeypatch)
        gap, reg, grid = colloc_gap(), RegStrategy.tikhonov_discrepancy(0.05), GridSpec.square(15)
        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        scan(gap, grid, reg)
        monkeypatch.setattr(sampling, "_SLICE", inside_count(grid) - 1)
        scan(gap, grid, reg)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        scan(gap, grid, reg)
        assert pools == [3, 2, 1]

    def test_noise_dominates_from_worker_has_one_worker_message(self, monkeypatch):
        gap = colloc_gap()
        reg = RegStrategy.tikhonov_discrepancy(0.9)  # target 1.35 |b|
        grid = GridSpec.square(15)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        _use_cpus(monkeypatch, 1)
        with pytest.raises(NoiseDominates) as single:
            scan(gap, grid, reg)
        _use_cpus(monkeypatch, 3)
        slices = record_slices(monkeypatch, meet=True)
        with pytest.raises(NoiseDominates) as threaded:
            scan(gap, grid, reg)
        assert len(slices) > 2 and len({thread for thread, _ in slices}) > 1
        assert str(threaded.value) == str(single.value)
        assert threaded.value.total == inside_count(grid)
        # raised by one worker's slice, reported for the whole block
        assert isinstance(threaded.value.__cause__, NoiseDominates)
        assert threaded.value.__cause__.total == 16

    def test_rhs_and_projection_stay_on_the_calling_thread(self, monkeypatch):
        # each thread that calls BLAS on large operands keeps a buffer of its
        # own; the workers filter slices of at most _SLICE columns
        calls = []

        def on_thread(name, fn):
            def recorded(*args):
                calls.append((name, threading.get_ident()))
                return fn(*args)
            return recorded

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(sampling, "_CHUNK", 64)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        for owner, name in ((sampling, "_rhs_columns"), (SvdFactorization, "project")):
            monkeypatch.setattr(owner, name, on_thread(name, getattr(owner, name)))
        slices = record_slices(monkeypatch, meet=True)
        scan(colloc_gap(), GridSpec.square(23), RegStrategy.tikhonov_discrepancy(0.05))
        blocks = len(range(0, inside_count(GridSpec.square(23)), 64))
        assert blocks >= 4
        me = threading.get_ident()
        assert sorted(calls) == sorted([("_rhs_columns", me), ("project", me)] * blocks)
        assert len(slices) > 4 * (blocks - 1)
        assert all(thread != me and width <= 16 for thread, width in slices)

    def test_slices_are_cut_at_fixed_columns(self, monkeypatch):
        # the widths at 1 CPU, in order, and at 3, in any order
        monkeypatch.setattr(sampling, "_CHUNK", 100)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        grid, widths = GridSpec.square(23), {}
        for cpus in (1, 3):
            with pytest.MonkeyPatch.context() as patch:
                _use_cpus(patch, cpus)
                slices = record_slices(patch)
                scan(colloc_gap(), grid, RegStrategy.tikhonov_discrepancy(0.05))
            widths[cpus] = [width for _, width in slices]
        total = inside_count(grid)
        want = [min(16, block - a) for block in (min(100, total - b) for b in range(0, total, 100))
                for a in range(0, block, 16)]
        assert total > 200 and want[:14] == ([16] * 6 + [4]) * 2
        assert widths[1] == want
        assert sorted(widths[3]) == sorted(want)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_noise_dominated_first_block_reports_its_width(self, monkeypatch, cpus):
        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(sampling, "_CHUNK", 64)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        grid = GridSpec.square(15)
        assert inside_count(grid) > 2 * 64
        with pytest.raises(NoiseDominates) as caught:
            scan(colloc_gap(), grid, RegStrategy.tikhonov_discrepancy(0.9))
        assert (caught.value.columns, caught.value.total) == (64, 64)

    def test_indicator_runs_on_one_worker(self, monkeypatch):
        pools = record_pools(monkeypatch)
        _use_cpus(monkeypatch, 4)
        monkeypatch.setattr(sampling, "_SLICE", 16)
        gap = colloc_gap()
        reg = RegStrategy.tikhonov_discrepancy(0.05)
        assert indicator(gap, (0.2, 0.1), reg) > 0
        scan(gap, GridSpec.square(15), reg)
        assert pools == [1, 4]


class TestLevelSet:
    @staticmethod
    def gaussian_grid(s=0.1, n=101):
        grid = GridSpec.square(n)
        pts = grid.points()
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        vals = np.where(np.sqrt(r2) <= 0.9, np.exp(-r2 / s), np.nan)
        values = vals.reshape(n, n)
        return IndicatorGrid(grid, values, ~np.isnan(values))

    def test_gaussian_contour_radius(self):
        s, thr = 0.1, 0.3
        grid = self.gaussian_grid(s)
        pts = extract_level_set(grid, thr)
        want = np.sqrt(s * np.log(1.0 / thr))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        spacing = 1.9 / 100
        assert np.max(np.abs(radii - want)) < spacing

    def test_points_ordered_by_angle(self):
        pts = extract_level_set(self.gaussian_grid(), 0.5)
        c = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        # counterclockwise cyclic order: at most one wraparound descent
        d = np.diff(ang)
        assert np.sum(d < -1e-9) <= 1
        assert np.all(d[d < -1e-9] < -np.pi)

    def test_threshold_out_of_range(self):
        with pytest.raises(NoContour):
            extract_level_set(self.gaussian_grid(), 1.0)

    def test_contour_crossing_mask_rejected(self):
        # flat profile: the 0.5 level sits at radius 1.66, outside the mask,
        # so no closed contour exists inside the sampled disk
        grid = self.gaussian_grid(s=4.0)
        with pytest.raises(NoContour):
            extract_level_set(grid, 0.5)

    def test_largest_component_selected(self):
        grid = GridSpec.square(81)
        pts = grid.points()
        bump = (np.exp(-((pts[:, 0] - 0.3) ** 2 + pts[:, 1] ** 2) / 0.02)
                + np.exp(-((pts[:, 0] + 0.4) ** 2 + pts[:, 1] ** 2) / 0.002))
        vals = np.where(np.hypot(pts[:, 0], pts[:, 1]) <= 0.9, bump, np.nan)
        ig = IndicatorGrid(grid, vals.reshape(81, 81), ~np.isnan(vals).reshape(81, 81))
        with pytest.warns(SeveralLoopsWarning, match="2 closed loops"):
            sel = extract_level_set(ig, 0.3)
        assert np.all(sel[:, 0] > 0)  # the wide right-hand bump wins

    def test_two_bumps_warn_with_the_loop_count(self):
        grid = GridSpec.square(61)
        pts = grid.points()
        bumps = sum(np.exp(-((pts[:, 0] - cx) ** 2 + pts[:, 1] ** 2) / 0.01)
                    for cx in (-0.4, 0.4))
        vals = np.where(np.hypot(pts[:, 0], pts[:, 1]) <= 0.9, bumps, np.nan).reshape(61, 61)
        with pytest.warns(SeveralLoopsWarning) as caught:
            extract_level_set(IndicatorGrid(grid, vals, ~np.isnan(vals)), 0.5)
        assert [str(w.message) for w in caught] == [
            "the level set has 2 closed loops; only the largest is kept"]

    def test_one_bump_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeveralLoopsWarning)
            extract_level_set(self.gaussian_grid(), 0.5)


def per_cell_segments(values, xs, ys, level):
    """Oracle: marching squares as a Python loop over every cell."""
    ny, nx = values.shape
    segments = []
    for i in range(ny - 1):
        for j in range(nx - 1):
            corner = np.array([values[i, j], values[i, j + 1],
                               values[i + 1, j + 1], values[i + 1, j]])
            if np.any(np.isnan(corner)):
                continue
            s = corner - level
            if np.all(s > 0) or np.all(s < 0):
                continue
            xy = [(xs[j], ys[i]), (xs[j + 1], ys[i]),
                  (xs[j + 1], ys[i + 1]), (xs[j], ys[i + 1])]
            edge_keys = [("h", i, j), ("v", i, j + 1), ("h", i + 1, j), ("v", i, j)]
            crossings = []
            for e, (a, b) in enumerate([(0, 1), (1, 2), (3, 2), (0, 3)]):
                if s[a] == 0:
                    s[a] = 1e-300
                if s[b] == 0:
                    s[b] = 1e-300
                if s[a] * s[b] < 0:
                    t = s[a] / (s[a] - s[b])
                    xa, ya = xy[a]
                    xb, yb = xy[b]
                    crossings.append((edge_keys[e], (xa + t * (xb - xa), ya + t * (yb - ya))))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                # saddle cell: pair the crossings by the sign of the center
                center = s.mean()
                if (s[0] > 0) == (center > 0):
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


# offsets from the level: zero takes the s == 0 path, and 1e-30 against a zero
# level makes products with the 1e-300 stand-in underflow
OFFSETS = [np.nan, 0.0, 0.5, -0.5, 1.0, -2.0, 1e-30, -1e-30]


@st.composite
def level_grids(draw):
    ny, nx = draw(st.integers(2, 15)), draw(st.integers(2, 15))
    level = draw(st.sampled_from([0.0, 1.0]))
    offsets = draw(st.lists(st.one_of(st.sampled_from(OFFSETS), st.floats(-3.0, 3.0)),
                            min_size=ny * nx, max_size=ny * nx))
    return level + np.reshape(offsets, (ny, nx)), level


class TestCellSegments:
    """The array-operation cell search returns the per-cell loop's segments."""

    @staticmethod
    def both(values, level):
        ny, nx = values.shape
        xs, ys = np.linspace(-0.95, 0.95, nx), np.linspace(-0.9, 0.8, ny)
        return (sampling._cell_segments(values, xs, ys, level),
                per_cell_segments(values, xs, ys, level))

    @settings(max_examples=150, deadline=None)
    @given(case=level_grids())
    def test_matches_per_cell_loop(self, case):
        got, want = self.both(*case)
        # same order, equal keys, coordinates equal under ==
        assert got == want

    @pytest.mark.parametrize("values, pairs", [
        # corner mean above the level, like corner 0: 0-3 and 1-2 edges pair up
        ([[3.0, 0.0], [0.0, 3.0]], [(("h", 0, 0), ("v", 0, 0)), (("v", 0, 1), ("h", 1, 0))]),
        # corner mean below the level: 0-1 and 2-3 edges pair up
        ([[1.5, -2.0], [-2.0, 1.5]], [(("h", 0, 0), ("v", 0, 1)), (("h", 1, 0), ("v", 0, 0))]),
        # corner mean exactly at the level pairs as below it
        ([[1.5, 0.5], [0.5, 1.5]], [(("h", 0, 0), ("v", 0, 1)), (("h", 1, 0), ("v", 0, 0))]),
    ])
    def test_saddle_pairing(self, values, pairs):
        got, want = self.both(np.array(values), 1.0)
        assert got == want
        assert [(a[0], b[0]) for a, b in got] == pairs

    def test_fine_gaussian_contour_matches_per_cell_loop(self, monkeypatch):
        grid = TestLevelSet.gaussian_grid(n=401)
        pts = extract_level_set(grid, 0.3)
        monkeypatch.setattr(sampling, "_cell_segments", per_cell_segments)
        want = extract_level_set(grid, 0.3)
        assert pts.tobytes() == want.tobytes()


class TestCurveFit:
    def test_exact_circle(self):
        t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        pts = 0.5 * np.column_stack([np.cos(t), np.sin(t)])
        fit = fit_trig_curve(pts, 1)
        assert abs(fit.cos_coef[0, 0] - 0.5) < 1e-10
        assert abs(fit.sin_coef[1, 0] - 0.5) < 1e-10
        others = [fit.cos_coef[0, 0] - 0.5, fit.cos_coef[1, 0],
                  fit.sin_coef[0, 0], fit.sin_coef[1, 0] - 0.5]
        assert np.max(np.abs(others)) < 1e-10

    def test_ellipse_fit_converges_geometrically(self):
        # the fit parametrizes by polar angle, under which the ellipse
        # coordinates are analytic but not band-limited, so the error decays
        # geometrically with the degree rather than vanishing at degree one
        t = np.linspace(0, 2 * np.pi, 80, endpoint=False)
        pts = np.column_stack([0.5 * np.cos(t), 0.3 * np.sin(t)])

        def level_error(degree):
            fit = fit_trig_curve(pts, degree)
            samples = fit.point(
                np.linspace(0, 2 * np.pi, 128, endpoint=False))
            level = (samples[:, 0] / 0.5) ** 2 + (samples[:, 1] / 0.3) ** 2
            return np.max(np.abs(level - 1.0))

        e7, e11, e19 = level_error(7), level_error(11), level_error(19)
        assert e7 < 1e-2
        assert e11 < e7 / 5
        assert e19 < 1e-6

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_trig_curve(np.ones((5, 2)), 7)

    def test_degenerate_fit_raises(self):
        # collinear points through the origin force a flat curve whose
        # tangent vanishes where it turns around
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0],
                        [-0.1, 0.0], [-0.2, 0.0]])
        with pytest.raises(DegenerateFit):
            fit_trig_curve(pts, 1)


class TestBasisIndependence:
    def test_inside_outside_ordering_agrees(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        colloc = gap_operator(cfg, basis="collocation", n=64)
        four = gap_operator(cfg, basis="fourier")
        reg = RegStrategy.tikhonov_discrepancy(0.02)
        points = [(0.1, 0.0), (0.3, 0.1), (0.62, 0.0), (0.8, 0.1)]
        w_c = [indicator(colloc, z, reg) for z in points]
        w_f = [indicator(four, z, reg) for z in points]
        assert list(np.argsort(w_c)) == list(np.argsort(w_f))
