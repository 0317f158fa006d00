"""Recovery of interior Cauchy data and the boundary impedance coefficient.

The potential between the measurement circle and a known (or reconstructed)
inclusion boundary is represented by two double layers,

    u0 = D_outer phi + D_inner~ psi,

where the inner layer carries the monopole modification so the representation
spans harmonic functions with net flux through the inclusion (see
:func:`eitdisk.bie.modified_double_layer`).  The trace jump relations turn the
two Dirichlet conditions into a block system for the densities,

    [ I - K_mm   -K_im~ ] [phi]   [ -f  ]
    [   K_mi    I + K_ii~] [psi] = [ u_i ],

with ``f`` the applied voltage and ``u_i`` the unknown inclusion trace.
Eliminating the densities against the measured current ``g`` on the outer
boundary yields an affine relation ``g = R f + S u_i``; the completion step
solves the severely ill-posed system ``S u_i = g - R f`` with regularization.
The current on the inclusion is affine in the same data,
``R_i f + S_i u_i``, and gives the pointwise impedance quotient
``gamma = -(d u0/d nu) / u0`` on the inclusion.

The block is LU-factorized once, and its condition is guarded by LAPACK's
1-norm estimate from those factors (see :func:`eitdisk.bie._factorize`).  The
four maps ``R``, ``S``, ``R_i`` and ``S_i`` are the outer flux rows
``[T_mm T_im~]`` and the inner current rows ``-[T_mi T_ii~]`` composed with
the block inverse, formed by one transposed solve against those factors.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .bie import (NystromMesh, _factorize, double_layer, modified_double_layer,
                  normal_derivative)
from .exceptions import AllMasked, RankDeficientWarning, ResidualTooLarge
from .regularization import (SvdFactorization, expected_noise_norm,
                             regularized_solve)

__all__ = [
    "CauchyPair",
    "CompletionSystem",
    "assemble_completion",
    "complete_cauchy",
    "predicted_current",
    "interior_potential",
    "GammaReconstruction",
    "recover_gamma_pointwise",
    "recover_gamma_lsq",
    "recover_gamma_averaged",
]

log = logging.getLogger(__name__)

_COND_LIMIT = 1e8


@dataclass(frozen=True)
class CauchyPair:
    """A voltage/current measurement pair on the outer boundary."""

    f: np.ndarray
    g: np.ndarray
    noise_level: float = 0.0
    seed: object = None
    label: str = ""

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if f.shape != g.shape or f.ndim != 1:
            raise ValueError("voltage and current must be equal-length vectors")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class CompletionSystem:
    """Assembled data-completion operators for one geometry."""

    outer: NystromMesh
    inner: NystromMesh
    lu: tuple = field(repr=False)      # LU factors of the trace system
    response: np.ndarray               # R: current due to f with zero inner trace
    completion: np.ndarray             # S: current due to the inner trace
    inner_response: np.ndarray         # R_i: inclusion current due to f
    inner_completion: np.ndarray       # S_i: inclusion current due to the trace
    svd: SvdFactorization = field(repr=False)
    condition: float = 0.0
    model_error_factor: float = 1.0


def assemble_completion(outer, inner, model_error_factor=1.0):
    """Build and factorize the completion operators.

    ``model_error_factor`` scales the noise level used by noise-tied
    regularization inside :func:`complete_cauchy`; set it above one when the
    inclusion boundary is itself reconstructed and therefore uncertain.
    """
    n_m, n_i = outer.n, inner.n
    kmm = double_layer(outer, outer)
    kim = modified_double_layer(inner, outer)
    kmi = double_layer(outer, inner)
    kii = modified_double_layer(inner, inner)
    block = np.block([[np.eye(n_m) - kmm, -kim],
                      [kmi, np.eye(n_i) + kii]])
    lu, condition = _factorize(block, "completion trace", _COND_LIMIT)

    tmm = normal_derivative(outer, outer)
    tim = normal_derivative(inner, outer, of="modified_double_layer")
    tmi = normal_derivative(outer, inner)
    tii = normal_derivative(inner, inner, of="modified_double_layer")
    rows = np.block([[tmm, tim], [-tmi, -tii]])
    # rows @ block^-1, as the solve of block^T against rows^T
    composed = la.lu_solve(lu, rows.T, trans=1).T
    response, completion = -composed[:n_m, :n_m], composed[:n_m, n_m:]
    inner_response, inner_completion = -composed[n_m:, :n_m], composed[n_m:, n_m:]
    return CompletionSystem(outer, inner, lu, response, completion,
                            inner_response, inner_completion,
                            SvdFactorization.from_matrix(completion),
                            condition, model_error_factor)


def _densities(system, f, inner_trace):
    rhs = np.concatenate([-np.asarray(f), np.asarray(inner_trace)])
    sol = la.lu_solve(system.lu, rhs)
    return sol[:system.outer.n], sol[system.outer.n:]


def predicted_current(system, f, inner_trace):
    """Outer current implied by a voltage and an inclusion trace."""
    return system.response @ np.asarray(f) + system.completion @ np.asarray(inner_trace)


def interior_potential(system, f, inner_trace, points):
    """Evaluate the completed potential at interior points."""
    phi, psi = _densities(system, f, inner_trace)
    dm = double_layer(system.outer, np.atleast_2d(points))
    di = modified_double_layer(system.inner, np.atleast_2d(points))
    return dm @ phi + di @ psi


def complete_cauchy(system, pair, reg, residual_guard=10.0):
    """Recover the inclusion trace and current from one Cauchy pair.

    The completion operator has exponentially decaying singular values, so a
    regularization strategy is mandatory.  Noise-tied strategies measure the
    absolute noise against the measured current (its expected perturbation
    magnitude under the uniform model), scaled by the system's model-error
    factor.  When that level reaches the data content of the completion
    equation, nothing rises above the noise: the trace and current returned
    are zero and ``info["noise_dominated"]`` is true.  Raises
    :class:`ResidualTooLarge` when the post-fit residual (the solve's
    ``info["residual"]``) is inconsistent with the declared noise.  The
    current on the inclusion has its normal pointing into the inclusion.
    """
    f, g = pair.f, pair.g
    if f.shape != (system.outer.n,):
        raise ValueError("pair resolution does not match the outer mesh")
    b = g - system.response @ f

    delta_abs = None
    level = pair.noise_level if pair.noise_level else reg.noise_level
    if level:
        delta_abs = system.model_error_factor * expected_noise_norm(g, level)
        if reg.kind in ("tikhonov", "cutoff") and reg.alpha is None and reg.tau is None:
            if reg.safety * delta_abs >= np.linalg.norm(b):
                # nothing in the completion equation rises above the noise
                # floor; the only defensible trace is zero
                zero = np.zeros(system.inner.n)
                return zero, zero.copy(), {"noise_dominated": True}
    trace, info = regularized_solve(system.svd, b, reg, delta_abs=delta_abs)

    if pair.noise_level and delta_abs:
        residual = info["residual"]
        if residual > residual_guard * delta_abs:
            raise ResidualTooLarge(
                f"completion residual {residual:.3e} exceeds "
                f"{residual_guard} x noise {delta_abs:.3e}")
    current = system.inner_response @ f + system.inner_completion @ trace
    info["noise_dominated"] = False
    return trace, current, info


@dataclass(frozen=True)
class GammaReconstruction:
    """Per-node impedance values for one or several Cauchy pairs."""

    theta: np.ndarray
    values: np.ndarray          # shape (pairs, nodes), NaN where masked
    average: np.ndarray
    spread: np.ndarray
    counts: np.ndarray

    @property
    def n_pairs(self):
        return self.values.shape[0]

    def unmasked(self):
        return ~np.isnan(self.average)


def _reconstruction(theta, values):
    values = np.atleast_2d(values)
    if np.all(np.isnan(values)):
        raise AllMasked("every node was excluded by the smallness mask")
    # summing in sorted order makes the average exactly invariant under
    # permutations of the pair list
    ordered = np.sort(values, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        avg = np.nanmean(ordered, axis=0)
        spread = np.nanstd(ordered, axis=0)
    counts = np.sum(~np.isnan(values), axis=0)
    return GammaReconstruction(theta, values, avg, spread, counts)


def recover_gamma_pointwise(trace, current, theta, tol_rel=0.05):
    """Impedance quotient ``-current/trace`` with a smallness mask.

    Nodes where ``|trace|`` falls below ``tol_rel`` times its maximum are
    masked (the quotient degenerates at zeros of the potential).
    """
    trace = np.asarray(trace, dtype=float)
    current = np.asarray(current, dtype=float)
    top = np.abs(trace).max()
    if top == 0.0:
        raise AllMasked("trace is identically zero")
    keep = np.abs(trace) >= tol_rel * top
    values = np.where(keep, -current / np.where(trace == 0.0, 1.0, trace), np.nan)
    return _reconstruction(np.asarray(theta), values[None, :])


def recover_gamma_lsq(traces, currents, theta, degree, ridge=0.0):
    """Impedance coefficients in a trigonometric basis by pooled least squares.

    Minimizes ``sum_pairs sum_nodes |current + gamma(theta) trace|^2`` over
    ``gamma = c_0 + sum_m c_m cos(m t) + d_m sin(m t)`` of the given degree.
    Returns the coefficient vector (constant, cosines, sines) and a callable
    evaluating the fit.  Warns when the stacked system is rank deficient.
    """
    theta = np.asarray(theta, dtype=float)
    basis = [np.ones_like(theta)]
    for m in range(1, degree + 1):
        basis += [np.cos(m * theta), np.sin(m * theta)]
    basis = np.array(basis).T
    rows = []
    rhs = []
    for tr, cu in zip(traces, currents):
        rows.append(basis * np.asarray(tr)[:, None])
        rhs.append(-np.asarray(cu))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    if ridge > 0:
        a = np.vstack([a, np.sqrt(ridge) * np.eye(basis.shape[1])])
        b = np.concatenate([b, np.zeros(basis.shape[1])])
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < basis.shape[1]:
        warnings.warn("impedance basis is rank deficient on these nodes",
                      RankDeficientWarning)

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        cols = [np.ones_like(t)]
        for m in range(1, degree + 1):
            cols += [np.cos(m * t), np.sin(m * t)]
        return np.array(cols).T @ coef

    return coef, evaluate


def recover_gamma_averaged(system, pairs, reg, tol_rel=0.05):
    """Per-pair completion and quotient, averaged node by node.

    The smallness mask is measured against the largest recovered trace
    magnitude over the whole pair list, so measurements whose completions are
    uniformly weak (for example pairs rejected as noise-dominated, which are
    recorded as fully masked) do not dilute the average.  Per-node spread and
    contribution counts are reported alongside the mean.
    """
    n_i = system.inner.n
    traces = np.full((len(pairs), n_i), np.nan)
    currents = np.full((len(pairs), n_i), np.nan)
    for k, pair in enumerate(pairs):
        trace, current, info = complete_cauchy(system, pair, reg)
        if info.get("noise_dominated"):
            log.info("pair %d (%s): noise dominates, skipped", k, pair.label)
            continue
        traces[k] = trace
        currents[k] = current
    finite = ~np.isnan(traces)
    if not finite.any():
        raise AllMasked("every pair was rejected as noise-dominated")
    global_max = np.nanmax(np.abs(traces))
    if global_max == 0.0:
        raise AllMasked("every recovered trace is identically zero")
    keep = finite & (np.abs(np.where(finite, traces, 0.0)) >= tol_rel * global_max)
    safe = np.where(keep & (traces != 0.0), traces, 1.0)
    values = np.where(keep, -currents / safe, np.nan)
    return _reconstruction(system.inner.theta, values)
