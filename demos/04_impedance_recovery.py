"""Recover the impedance coefficient of an ellipse from 16 Cauchy pairs.

Voltages cos(k theta) and sin(k theta), k = 1..8, drive the true ellipse;
the measured currents carry four percent noise.  The interior Cauchy data is
recovered by boundary-integral data completion, the impedance follows from
the pointwise quotient averaged over the pairs, and the whole procedure is
repeated on a reconstructed boundary taken from the disk sampling pipeline.
Writes the averaged reconstruction as CSV.
"""

import numpy as np

from eitdisk import (AnnulusConfig, BoundaryCurve, GridSpec,
                     NystromMesh, RegStrategy, assemble_completion,
                     gap_operator, recover_gamma_averaged, scan, solve_forward)
from eitdisk.io import write_gamma
from eitdisk.regularization import perturb_vector
from eitdisk.sampling import extract_level_set, fit_trig_curve

NOISE = 0.04
outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
ellipse = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
gamma_true = 2.0 - np.sin(ellipse.theta) ** 4

print("simulating 16 measurement pairs with 4 percent current noise ...")
# one row per pair: the applied voltage and the measured current
voltages, currents = [], []
for k in range(1, 9):
    for fn in (np.cos, np.sin):
        f = fn(k * outer.theta)
        g = solve_forward(outer, ellipse, "impedance", f, gamma_true).outer_flux()
        voltages.append(f)
        currents.append(perturb_vector(g, NOISE, (0, len(currents))))
voltages, currents = np.array(voltages), np.array(currents)

reg = RegStrategy.cutoff_by_noise(NOISE, safety=2.0)

print("recovering on the exact ellipse boundary ...")
system = assemble_completion(outer, ellipse)
recon = recover_gamma_averaged(system, voltages, currents, reg, NOISE, tol_rel=0.2)
err = np.linalg.norm(np.where(recon.unmasked(), recon.average - gamma_true, 0.0))
err /= np.linalg.norm(gamma_true)
print(f"  relative error {err:.3f}; per-node spread up to "
      f"{np.nanmax(recon.spread):.2f} over {recon.values.shape[0]} pairs")
write_gamma("gamma_exact_boundary.csv", recon, {"demo": "impedance", "boundary": "exact"})

print("recovering on a boundary reconstructed by the sampling pipeline ...")
gap = gap_operator(AnnulusConfig(0.5, "dirichlet"), basis="collocation", n=64)
indicator = scan(gap, GridSpec.square(101), RegStrategy.tikhonov_discrepancy(0.02, 1.5))
fitted = fit_trig_curve(extract_level_set(indicator, 0.2), degree=7)
system_fit = assemble_completion(outer, NystromMesh(fitted, 64),
                                 model_error_factor=2.0)
recon_fit = recover_gamma_averaged(system_fit, voltages, currents, reg, NOISE,
                                   tol_rel=0.2)
nodes = system_fit.inner.points
t_param = np.arctan2(nodes[:, 1] / 0.3, nodes[:, 0] / 0.5)
truth = 2.0 - np.sin(t_param) ** 4
err_fit = np.linalg.norm(np.where(recon_fit.unmasked(), recon_fit.average - truth, 0.0))
err_fit /= np.linalg.norm(truth)
print(f"  relative error {err_fit:.3f} against the impedance carried over "
      f"from the nearest true-boundary angles")
write_gamma("gamma_fitted_boundary.csv", recon_fit,
            {"demo": "impedance", "boundary": "fitted"})
print("wrote gamma_exact_boundary.csv and gamma_fitted_boundary.csv")
