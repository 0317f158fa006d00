"""Acceptance gate: one test per criterion, each printing a PASS line.

Experiment-level parameter choices that the criteria leave open are set once
here and documented inline; every tolerance comes from the criterion itself.
All randomness is driven by fixed seeds.
"""

import numpy as np

from eitdisk.annulus import AnnulusConfig, gap_coefficient, gap_operator, truncation_error
from eitdisk.bie import NystromMesh, dtn_matrix, solve_forward
from eitdisk.completion import assemble_completion, recover_gamma_averaged
from eitdisk.dtn import gap_from_lambda0, to_real_trig_basis
from eitdisk.geometry import BoundaryCurve, fourier_analyze
from eitdisk.regularization import (RegStrategy, SvdFactorization,
                                    discrepancy_alpha, perturb_vector,
                                    tikhonov_solve)
from eitdisk.sampling import (GridSpec, extract_level_set, fit_trig_curve,
                              poisson_kernel, scan)
from eitdisk.verify import run_all

SEED = 0


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


def outer_mesh(n=64):
    return NystromMesh(BoundaryCurve.circle(radius=1.0), n)


def inner_mesh(curve, n=64):
    return NystromMesh(curve, n)


def polar_radius(curve, angles):
    """Radial profile of a star-shaped curve by interpolation in angle."""
    t = curve.nodes(512)
    pts = curve.point(t)
    r = np.hypot(pts[:, 0], pts[:, 1])
    a = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    order = np.argsort(a)
    return np.interp(np.mod(angles, 2 * np.pi), a[order], r[order],
                     period=2 * np.pi)


def test_criterion_1_forward_oracle_equivalence():
    outer = outer_mesh(64)
    worst = 0.0
    for rho in (0.25, 0.5):
        inner = inner_mesh(BoundaryCurve.circle(radius=rho))
        for bc, gamma in (("dirichlet", None), ("impedance", 0.5),
                          ("impedance", 2.0)):
            cfg = AnnulusConfig(rho, bc, gamma)
            gv = None if gamma is None else np.full(64, gamma)
            for k in range(1, 9):
                for f in (np.cos(k * outer.theta), np.sin(k * outer.theta)):
                    flux = solve_forward(outer, inner, bc, f, gv).outer_flux()
                    want = (k - gap_coefficient(cfg, k)) * f
                    err = np.linalg.norm(flux - want) / np.linalg.norm(want)
                    worst = max(worst, float(err))
    assert worst < 1e-6
    report(1, f"integral-equation currents match the series oracle, "
              f"worst relative error {worst:.2e} < 1e-6")


def test_criterion_2_truncation_decay():
    cfg = AnnulusConfig(0.5, "dirichlet", order=40)
    ratios = []
    for n in range(5, 16):
        ratios.append(truncation_error(cfg, n, n + 1)
                      / truncation_error(cfg, n + 1, n + 2))
    ratios = np.array(ratios)
    ideal = 1.0 / cfg.rho**2
    assert np.all(ratios > ideal / 2) and np.all(ratios < ideal * 2)
    report(2, f"truncation-error ratios in [{ratios.min():.2f}, {ratios.max():.2f}] "
              f"stay within a factor 2 of 1/rho^2 = {ideal:.0f} for N=5..15")


def test_criterion_3_gap_symmetry():
    outer = outer_mesh(64)
    inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
    gamma = 2.0 - np.sin(inner.theta) ** 4
    lam = dtn_matrix(outer, inner, "impedance", gamma, basis="fourier",
                     modes=np.arange(-19, 20))
    gap = gap_from_lambda0(lam)
    real, _ = to_real_trig_basis(gap)
    asym = np.linalg.norm(real - real.T, 2) / np.linalg.norm(real, 2)
    assert asym < 1e-6
    report(3, f"current-gap matrix in the real trig basis has relative "
              f"asymmetry {asym:.2e} < 1e-6")


def test_criterion_4_regularizer_correctness():
    rng = np.random.Generator(np.random.Philox(SEED))
    worst_solve, worst_root = 0.0, 0.0
    for trial in range(5):
        a = rng.normal(size=(20, 20))
        b = rng.normal(size=20)
        svd = SvdFactorization.from_matrix(a)
        alpha = 10.0 ** rng.uniform(-6, -1)
        x = tikhonov_solve(svd, b, alpha)
        x_ne = np.linalg.solve(alpha * np.eye(20) + a.T @ a, a.T @ b)
        worst_solve = max(worst_solve,
                          np.linalg.norm(x - x_ne) / np.linalg.norm(x_ne))
        target = rng.uniform(0.05, 0.6) * np.linalg.norm(b)
        al = discrepancy_alpha(svd, b, target, safety=1.0)
        res = np.linalg.norm(a @ tikhonov_solve(svd, b, al) - b)
        worst_root = max(worst_root, abs(res - target) / target)
    assert worst_solve < 1e-10
    assert worst_root < 1e-8
    report(4, f"SVD Tikhonov matches normal equations to {worst_solve:.2e} "
              f"< 1e-10; discrepancy residual error {worst_root:.2e} < 1e-8")


def test_criterion_5_poisson_kernel():
    theta = 2 * np.pi * np.arange(256) / 256
    rng = np.random.Generator(np.random.Philox(SEED))
    worst_norm, worst_coef = 0.0, 0.0
    for _ in range(8):
        r = rng.uniform(0.0, 0.8)
        a = rng.uniform(0.0, 2 * np.pi)
        z = (r * np.cos(a), r * np.sin(a))
        vals = poisson_kernel(z, theta)
        worst_norm = max(worst_norm,
                         abs(vals.sum() * 2 * np.pi / 256 - 1.0))
        d = fourier_analyze(vals, 10)
        for n in range(-10, 11):
            want = r ** abs(n) * np.exp(-1j * n * a) / (2 * np.pi)
            worst_coef = max(worst_coef, abs(d.coefficient(n) - want))
    assert worst_norm < 1e-12
    assert worst_coef < 1e-10
    report(5, f"Poisson normalization error {worst_norm:.2e} < 1e-12, "
              f"coefficient error {worst_coef:.2e} < 1e-10")


def test_criterion_6_dirichlet_disk_reconstruction():
    grid = GridSpec.square(101)
    reg_noisy = RegStrategy.tikhonov_discrepancy(0.05, 1.5)
    # In the noiseless companion run the discrepancy level plays the role of
    # a resolution limit rather than a data-error estimate; 0.02 keeps the
    # inversion at the resolution the 5 percent experiment is designed for.
    reg_clean = RegStrategy.tikhonov_discrepancy(0.02, 1.5)
    contrasts, radii = {}, {}
    for rho in (0.25, 0.5):
        gap = gap_operator(AnnulusConfig(rho, "dirichlet"),
                           basis="collocation", n=64)
        noisy = scan(gap, grid, reg_noisy, noise=(0.05, SEED))
        pts = grid.points()
        r = np.hypot(pts[:, 0], pts[:, 1]).reshape(101, 101)
        inside = np.nanmean(noisy.values[r < rho - 0.05])
        outside = np.nanmean(noisy.values[(r > 0.6) & (r < 0.9)])
        contrasts[rho] = inside / outside
        assert contrasts[rho] >= 2.0

        clean = scan(gap, grid, reg_clean)
        contour = extract_level_set(clean, threshold_rel=0.2)
        mean_radius = float(np.hypot(contour[:, 0], contour[:, 1]).mean())
        radii[rho] = mean_radius
        assert abs(mean_radius - rho) / rho <= 0.15
    report(6, "noisy inside/outside contrast "
              f"{contrasts[0.25]:.1f} (rho=0.25) and {contrasts[0.5]:.1f} "
              f"(rho=0.5), both >= 2; noiseless level-set radii "
              f"{radii[0.25]:.3f} and {radii[0.5]:.3f} within 15 percent")


def shape_meshes():
    return {"circle(0.3)": BoundaryCurve.circle(radius=0.3),
            "ellipse": BoundaryCurve.ellipse(0.5, 0.3),
            "cardioid": BoundaryCurve.cardioid()}


def test_criterion_7_impedance_shapes_contrast():
    grid = GridSpec.square(101)
    reg = RegStrategy.spectral_cutoff(1e-4)
    outer = outer_mesh(64)   # 64 nodes resolve every driven mode 0..19
    results = {}
    for name, curve in shape_meshes().items():
        inner = inner_mesh(curve)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        lam = dtn_matrix(outer, inner, "impedance", gamma, basis="fourier",
                         modes=np.arange(0, 20), flux_noise=(0.04, SEED))
        gap = gap_from_lambda0(lam)
        result = scan(gap, grid, reg)
        pts = grid.points()
        r = np.hypot(pts[:, 0], pts[:, 1])
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        inside = (r < 0.8 * polar_radius(curve, ang)).reshape(101, 101)
        outside = ((r > 0.6) & (r < 0.9)).reshape(101, 101)
        ratio = np.nanmean(result.values[inside]) / np.nanmean(result.values[outside])
        results[name] = ratio
        assert ratio >= 2.0
    report(7, "inside/outside indicator contrast with 4 percent data noise: "
              + ", ".join(f"{k} {v:.1f}" for k, v in results.items())
              + "; all >= 2")


def test_criterion_8_impedance_recovery_noiseless_oracle():
    rho, gamma = 0.5, 2.0
    cfg = AnnulusConfig(rho, "impedance", gamma)
    system = assemble_completion(outer_mesh(), inner_mesh(BoundaryCurve.circle(radius=rho)))
    theta = system.outer.theta
    voltages, currents = [], []
    for k in range(1, 9):
        lam0_k = k - gap_coefficient(cfg, k)
        for fn in (np.cos, np.sin):
            f = fn(k * theta)
            voltages.append(f)
            currents.append(lam0_k * f)
    recon = recover_gamma_averaged(system, voltages, currents,
                                   RegStrategy.tikhonov_discrepancy(1e-8))
    keep = recon.unmasked()
    err = np.max(np.abs(recon.average[keep] - gamma)) / gamma
    assert err < 1e-2
    report(8, f"constant impedance recovered from series-oracle data with max "
              f"relative error {err:.2e} < 1e-2 on {int(keep.sum())} nodes")


def _ellipse_cauchy_pairs(system, noise, seed):
    """Voltages and perturbed currents of sixteen measurement pairs from the
    true ellipse, one row per pair."""
    outer = outer_mesh(64)
    inner = inner_mesh(BoundaryCurve.ellipse(0.5, 0.3))
    gamma = 2.0 - np.sin(inner.theta) ** 4
    voltages, currents = [], []
    for k in range(1, 9):
        for fn in (np.cos, np.sin):
            f = fn(k * outer.theta)
            g = solve_forward(outer, inner, "impedance", f, gamma).outer_flux()
            voltages.append(f)
            currents.append(perturb_vector(g, noise, (seed, len(currents))))
    return np.array(voltages), np.array(currents)


def _gamma_truth_on(curve_points):
    """True impedance transported to nearby points via the ellipse parameter."""
    t_param = np.arctan2(curve_points[:, 1] / 0.3, curve_points[:, 0] / 0.5)
    return 2.0 - np.sin(t_param) ** 4


def test_criterion_9_impedance_recovery_paper_experiment():
    noise = 0.04
    # exact boundary ------------------------------------------------------
    system = assemble_completion(outer_mesh(), inner_mesh(BoundaryCurve.ellipse(0.5, 0.3)))
    voltages, currents = _ellipse_cauchy_pairs(system, noise, SEED)
    # spectral cutoff tied to the expected noise magnitude; the wider 0.2
    # exclusion mask keeps noise-limited completions out of the average
    reg = RegStrategy.cutoff_by_noise(noise, safety=2.0)
    recon = recover_gamma_averaged(system, voltages, currents, reg, noise, tol_rel=0.2)
    gamma_true = 2.0 - np.sin(system.inner.theta) ** 4
    diff = np.where(recon.unmasked(), recon.average - gamma_true, 0.0)
    err_exact = np.linalg.norm(diff) / np.linalg.norm(gamma_true)
    assert err_exact < 0.25

    # reconstructed boundary ----------------------------------------------
    # the boundary comes from the disk pipeline of criterion 6 (noiseless
    # run, threshold 0.2, degree 7), mirroring the experiment that fits the
    # level curve of the circular reconstruction
    gap = gap_operator(AnnulusConfig(0.5, "dirichlet"), basis="collocation", n=64)
    clean = scan(gap, GridSpec.square(101), RegStrategy.tikhonov_discrepancy(0.02, 1.5))
    contour = extract_level_set(clean, threshold_rel=0.2)
    fitted = fit_trig_curve(contour, degree=7)
    system_fit = assemble_completion(outer_mesh(), inner_mesh(fitted),
                                     model_error_factor=2.0)
    recon_fit = recover_gamma_averaged(system_fit, voltages, currents, reg, noise,
                                       tol_rel=0.2)
    nodes = system_fit.inner.points
    truth_fit = _gamma_truth_on(nodes)
    diff = np.where(recon_fit.unmasked(), recon_fit.average - truth_fit, 0.0)
    err_fit = np.linalg.norm(diff) / np.linalg.norm(truth_fit)
    assert err_fit < 0.40

    # shape ordering: minima near +-pi/2, maxima near 0 and pi
    ang = np.arctan2(nodes[:, 1], nodes[:, 0])
    near_min = (np.abs(ang - np.pi / 2) < 0.45) | (np.abs(ang + np.pi / 2) < 0.45)
    near_max = (np.abs(ang) < 0.45) | (np.abs(np.abs(ang) - np.pi) < 0.45)
    mean_min = np.nanmean(recon_fit.average[near_min])
    mean_max = np.nanmean(recon_fit.average[near_max])
    assert mean_min < mean_max
    report(9, f"averaged impedance error {err_exact:.3f} < 0.25 on the exact "
              f"ellipse and {err_fit:.3f} < 0.40 on the fitted boundary; "
              f"reconstruction orders the minima ({mean_min:.2f} near half pi) "
              f"below the maxima ({mean_max:.2f} near 0 and pi)")


def test_criterion_10_sigma0_adjudication():
    results = {r.name: r for r in run_all()}
    suite = results["constant-mode impedance coefficient"]
    assert suite.passed
    assert suite.measured < 1e-6
    assert "printed variant" in suite.detail
    # the alternative constant-mode formula must disagree by far more than
    # the agreement tolerance
    err_printed = float(suite.detail.split("err ")[-1])
    assert err_printed > 10 * 1e-6
    report(10, f"verification suite records the solver agreeing with the "
               f"derived constant-mode coefficient to {suite.measured:.2e} "
               f"while the alternative formula misses by {err_printed:.2e}")
