"""Reconstruct grounded circular inclusions from noisy current-gap data.

The experiment of the disk with a perfectly conducting inclusion: perturb the
64-node current-gap matrix with five percent multiplicative noise, solve the
regularized sampling equation over a grid, and localize the inclusion from a
level set of the reciprocal solution norm.  Writes indicator maps as CSV.
"""

import numpy as np

from eitdisk import AnnulusConfig, GridSpec, RegStrategy, gap_operator, scan
from eitdisk.io import write_indicator
from eitdisk.sampling import extract_level_set, fit_trig_curve

grid = GridSpec.square(101)

for rho in (0.5, 0.25):
    gap = gap_operator(AnnulusConfig(rho, "dirichlet"), basis="collocation", n=64)

    noisy = scan(gap, grid, RegStrategy.tikhonov_discrepancy(0.05, 1.5),
                 noise=(0.05, 0))
    pts = grid.points()
    r = np.hypot(pts[:, 0], pts[:, 1]).reshape(101, 101)
    contrast = (np.nanmean(noisy.values[r < rho - 0.05])
                / np.nanmean(noisy.values[(r > 0.6) & (r < 0.9)]))

    clean = scan(gap, grid, RegStrategy.tikhonov_discrepancy(0.02, 1.5))
    contour = extract_level_set(clean, threshold_rel=0.2)
    fitted = fit_trig_curve(contour, degree=7)
    radii = np.hypot(*fitted.point(
        np.linspace(0, 2 * np.pi, 64, endpoint=False)).T)

    out = f"indicator_rho{rho}.csv"
    write_indicator(out, noisy, {"demo": "sampling_disk", "rho": rho})
    print(f"rho = {rho}: noisy inside/outside contrast {contrast:.1f}; "
          f"noiseless level set gives radius "
          f"{radii.mean():.3f} +/- {radii.std():.4f}; wrote {out}")
