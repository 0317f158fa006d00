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

from .bie import (NystromMesh, _check_inclusion, _factorize, double_layer,
                  modified_double_layer, normal_derivative)
from .exceptions import AllMasked, RankDeficientWarning, ResidualTooLarge
from .regularization import (SvdFactorization, expected_noise_norm,
                             regularized_solve)

__all__ = [
    "CauchyPair",
    "CompletionSystem",
    "assemble_completion",
    "complete_cauchy",
    "GammaReconstruction",
    "recover_gamma_pointwise",
    "recover_gamma_lsq",
    "recover_gamma_averaged",
]

log = logging.getLogger(__name__)

_COND_LIMIT = 1e8
# a completion residual above this multiple of the declared noise is rejected
_RESIDUAL_GUARD = 10.0


@dataclass(frozen=True)
class CauchyPair:
    """A voltage/current measurement pair on the outer boundary."""

    f: np.ndarray
    g: np.ndarray
    noise_level: float = 0.0
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
    Raises :class:`ValueError` when the inner curve reaches the unit circle.
    """
    _check_inclusion(inner)
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
    return CompletionSystem(outer, inner, response, completion,
                            inner_response, inner_completion,
                            SvdFactorization.from_matrix(completion),
                            condition, model_error_factor)


def complete_cauchy(system, pair, reg):
    """Recover the inclusion trace and current from one Cauchy pair.

    The completion operator has exponentially decaying singular values, so a
    regularization strategy is mandatory.  Noise-tied strategies measure the
    absolute noise against the measured current (its expected perturbation
    magnitude under the uniform model, at the strategy's noise level or, when
    the strategy has none, the pair's), scaled by the system's model-error
    factor.  When that level reaches the data content of the completion
    equation, nothing rises above the noise: the trace and current returned
    are zero and ``info["noise_dominated"]`` is true.  Raises
    :class:`ResidualTooLarge` when the post-fit residual (the solve's
    ``info["residual"]``) exceeds ``_RESIDUAL_GUARD`` times the declared
    noise.  The current on the inclusion has its normal pointing into the
    inclusion.
    """
    f, g = pair.f, pair.g
    if f.shape != (system.outer.n,):
        raise ValueError("pair resolution does not match the outer mesh")
    b = g - system.response @ f

    delta_abs = None
    level = reg.noise_level if reg.noise_level is not None else pair.noise_level
    if level:
        delta_abs = system.model_error_factor * expected_noise_norm(g, level)
        if reg.noise_tied and reg.safety * delta_abs >= np.linalg.norm(b):
            # nothing in the completion equation rises above the noise
            # floor; the only defensible trace is zero
            zero = np.zeros(system.inner.n)
            return zero, zero.copy(), {"noise_dominated": True}
    trace, info = regularized_solve(system.svd, b, reg, delta_abs=delta_abs)

    if pair.noise_level and delta_abs:
        residual = info["residual"]
        if residual > _RESIDUAL_GUARD * delta_abs:
            raise ResidualTooLarge(
                f"completion residual {residual:.3e} exceeds "
                f"{_RESIDUAL_GUARD} x noise {delta_abs:.3e}")
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


def _quotients(theta, traces, currents, tol_rel):
    """Masked quotients ``-current/trace``, one row per pair, and their average.

    Nodes where ``|trace|`` falls below ``tol_rel`` times the largest trace
    magnitude over all pairs are masked (the quotient degenerates at zeros of
    the potential), and so are NaN traces, which mark skipped pairs.
    """
    finite = ~np.isnan(traces)
    top = np.max(np.abs(traces), where=finite, initial=0.0)
    if top == 0.0:
        raise AllMasked("every recovered trace is identically zero")
    keep = finite & (np.abs(np.where(finite, traces, 0.0)) >= tol_rel * top)
    safe = np.where(keep & (traces != 0.0), traces, 1.0)
    return _reconstruction(theta, np.where(keep, -currents / safe, np.nan))


def recover_gamma_pointwise(trace, current, theta, tol_rel=0.05):
    """Impedance quotient ``-current/trace`` of one pair with a smallness mask.

    Nodes where ``|trace|`` falls below ``tol_rel`` times its maximum are
    masked; :func:`recover_gamma_averaged` does the same over several pairs.
    """
    return _quotients(np.asarray(theta), np.asarray(trace, dtype=float)[None, :],
                      np.asarray(current, dtype=float)[None, :], tol_rel)


def recover_gamma_lsq(traces, currents, theta, degree):
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
    if np.isnan(traces).all():
        raise AllMasked("every pair was rejected as noise-dominated")
    return _quotients(system.inner.theta, traces, currents, tol_rel)
