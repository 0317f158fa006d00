"""Inverse electrostatics on the unit disk.

Simulates voltage-to-current boundary data for a disk containing an
impenetrable inclusion, reconstructs the inclusion boundary by a sampling
indicator, and recovers the boundary impedance coefficient through a
boundary-integral data-completion scheme.
"""

from .annulus import (AnnulusConfig, gap_coefficient, gap_operator,
                      inner_flux_coefficient, inner_trace_coefficient,
                      reflection_coefficient, truncation_error)
from .bie import (ForwardSolution, NystromMesh, double_layer, dtn_matrix,
                  modified_double_layer, normal_derivative, single_layer,
                  solve_forward)
from .completion import (CompletionSystem, GammaReconstruction,
                         assemble_completion, complete_cauchy,
                         recover_gamma_averaged, recover_gamma_lsq,
                         recover_gamma_pointwise)
from .dtn import (DtnOperator, gap_from_lambda0, healthy_collocation_matrix,
                  healthy_fourier_matrix, to_real_trig_basis)
from .geometry import BoundaryCurve, FourierData, fourier_analyze, fourier_eval
from .regularization import (RegStrategy, SvdFactorization, discrepancy_alpha,
                             expected_noise_norm, perturb_matrix, perturb_vector,
                             regularized_solve, tikhonov_solve)
from .sampling import (GridSpec, IndicatorGrid, extract_level_set,
                       fit_trig_curve, indicator, poisson_kernel, poisson_rhs,
                       scan)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
