"""Simulate boundary current maps and check them against the series oracle.

The unit disk with a concentric circular inclusion admits closed-form
solutions, so the integral-equation solver can be validated mode by mode.
This script walks through the comparison and prints the worst errors.
"""

import numpy as np

from eitdisk import (AnnulusConfig, BoundaryCurve, NystromMesh, dtn_matrix,
                     gap_coefficient, gap_from_lambda0, solve_forward)

outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)

print("== concentric circle, grounded inclusion ==")
inner = NystromMesh(BoundaryCurve.circle(radius=0.5), 64)
cfg = AnnulusConfig(0.5, "dirichlet")
for k in (1, 2, 4, 8):
    f = np.cos(k * outer.theta)
    flux = solve_forward(outer, inner, "dirichlet", f).outer_flux()
    want = (k - gap_coefficient(cfg, k)) * f
    print(f"  mode {k}: current coefficient {flux[0] / f[0]:+.6f} "
          f"(series {want[0] / f[0]:+.6f}), "
          f"max error {np.max(np.abs(flux - want)):.2e}")

print("== same geometry, impedance condition gamma = 2 ==")
cfg = AnnulusConfig(0.5, "impedance", 2.0)
gamma = np.full(64, 2.0)
for k in (1, 2, 4):
    f = np.cos(k * outer.theta)
    flux = solve_forward(outer, inner, "impedance", f, gamma).outer_flux()
    want = (k - gap_coefficient(cfg, k)) * f
    print(f"  mode {k}: gap coefficient {gap_coefficient(cfg, k):+.6f}, "
          f"max error {np.max(np.abs(flux - want)):.2e}")
print("  note: mode 1 is invisible here because rho * gamma = 1 exactly")

print("== current-gap matrix for an off-family shape ==")
inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
lam = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
gap = gap_from_lambda0(lam)
s = np.linalg.svd(gap.matrix, compute_uv=False)
print(f"  ellipse gap operator: largest singular values {np.round(s[:6], 4)}")
print(f"  geometric decay ratio s[4]/s[2] = {s[4] / s[2]:.3f} "
      f"(compactness at work)")
