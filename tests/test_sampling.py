import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk import sampling
from eitdisk.annulus import AnnulusConfig, gap_operator
from eitdisk.exceptions import (AllModesCutWarning, DegenerateFit, NoContour,
                                NoiseDominates, SingularSystem, TooCloseToBoundary)
from eitdisk.geometry import fourier_analyze
from eitdisk.regularization import RegStrategy, SvdFactorization, regularized_solve
from eitdisk.sampling import (GridSpec, IndicatorGrid, extract_level_set,
                              fit_trig_curve, indicator, poisson_kernel,
                              poisson_rhs, scan)

DIRICHLET = AnnulusConfig(0.5, "dirichlet")


def colloc_gap(rho=0.5, n=64):
    return gap_operator(AnnulusConfig(rho, "dirichlet"), basis="collocation", n=n)


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
                    assert abs(w - want) <= 1e-9 * want

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


def use_cpus(monkeypatch, count):
    """Make the scan see ``count`` usable CPUs."""
    monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


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
        default = scan(gap, grid, reg, noise=(0.05, 5))
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            assert sampling._worker_count(default.mask.sum()) == cpus
            out = scan(gap, grid, reg, noise=(0.05, 5))
            assert np.array_equal(out.values, default.values, equal_nan=True)

    def test_worker_count_follows_usable_cpus(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        assert sampling._worker_count(10_000) == 3
        # each thread gets at least _MIN_SLICE columns; one point gets none
        assert sampling._worker_count(2 * sampling._MIN_SLICE + 1) == 2
        assert sampling._worker_count(1) == 1
        monkeypatch.delattr(sampling.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: None)
        assert sampling._worker_count(10_000) == 1

    def test_noise_dominates_from_worker_has_one_worker_message(self, monkeypatch):
        gap = colloc_gap()
        reg = RegStrategy.tikhonov_discrepancy(0.9)  # target 1.35 |b|
        grid = GridSpec.square(15)
        use_cpus(monkeypatch, 1)
        with pytest.raises(NoiseDominates) as single:
            scan(gap, grid, reg)
        use_cpus(monkeypatch, 3)
        with pytest.raises(NoiseDominates) as threaded:
            scan(gap, grid, reg)
        assert str(threaded.value) == str(single.value)
        pts = grid.points()
        assert threaded.value.total == np.sum(np.hypot(*pts.T) <= sampling.RADIUS_MASK)
        # raised by one worker's slice, reported for the whole block
        assert isinstance(threaded.value.__cause__, NoiseDominates)
        assert threaded.value.__cause__.total < threaded.value.total

    def test_indicator_runs_on_one_worker(self, monkeypatch):
        pools = []

        def recording_pool(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", recording_pool)
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
        sel = extract_level_set(ig, 0.3)
        assert np.all(sel[:, 0] > 0)  # the wide right-hand bump wins


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
            samples = fit.to_curve().point(
                np.linspace(0, 2 * np.pi, 128, endpoint=False))
            level = (samples[:, 0] / 0.5) ** 2 + (samples[:, 1] / 0.3) ** 2
            return np.max(np.abs(level - 1.0))

        e7, e11, e19 = level_error(7), level_error(11), level_error(19)
        assert e7 < 1e-2
        assert e11 < e7 / 5
        assert e19 < 1e-6

    def test_smoothing_reduces_roughness(self):
        rng = np.random.Generator(np.random.Philox(8))
        t = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        pts = (0.5 + 0.005 * rng.normal(size=60))[:, None] * np.column_stack(
            [np.cos(t), np.sin(t)])

        def seminorm(fit):
            m = np.arange(1, fit.degree + 1)
            w = (1.0 + m**2) ** 2
            return np.sum(w * (fit.cos_coef**2 + fit.sin_coef**2))

        rough = fit_trig_curve(pts, 7, smoothing=0.0)
        smooth = fit_trig_curve(pts, 7, smoothing=1e-3)
        assert seminorm(smooth) < seminorm(rough)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_trig_curve(np.ones((5, 2)), 7)

    def test_degenerate_fit_raises(self):
        # collinear points through the origin force a flat curve whose
        # tangent vanishes where it turns around
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0],
                        [-0.1, 0.0], [-0.2, 0.0]])
        with pytest.raises(DegenerateFit):
            fit_trig_curve(pts, 1, smoothing=0.0)


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
