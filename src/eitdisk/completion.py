"""Recovery of interior Cauchy data and the boundary impedance coefficient.

The potential between the measurement circle and a known (or reconstructed)
inclusion boundary is represented as ``u0 = P[f] + D_G~ psi``: the harmonic
extension of the applied voltage ``f`` plus a double layer of the disk's
Green's function on the inclusion, with the monopole ``2 log|x|`` so that it
carries net flux through the inclusion (see
:func:`eitdisk.bie.modified_double_layer`).  Both vanish on the circle, so
only the inclusion is discretized.  Its trace ``u_i = B f + A psi``, with
``A = I + K~ + K_H`` (``K_H`` the image part, :func:`eitdisk.bie._image`),
and the outer current ``g = Lambda0 f + F psi``, with ``F = -(n/pi) D^T
diag(w) + 2 w`` the Poisson integral of the layer's normal derivative, give
``g = R f + S u_i`` with ``S = F A^-1`` and ``R = Lambda0 - S B``.  ``B``
and ``D`` hold ``P[f]`` and its normal derivative at the inclusion nodes
per outer node value (:func:`eitdisk.bie._harmonic_extension`).  The
completion step solves the severely ill-posed ``S u_i = g - R f`` with
regularization.  The current on the inclusion, ``-(D f + (T~ + T_H) psi)``
with ``psi = A^-1 (u_i - B f)``, gives the pointwise impedance quotient
``gamma = -(d u0/d nu) / u0``.

:func:`assemble_completion` LU-factorizes ``A`` once, its condition guarded
by LAPACK's 1-norm estimate from the factors (:func:`eitdisk.bie._factorize`),
and forms only ``S``, which its SVD factorizes, by a transposed solve in
place; ``R f`` and the inclusion current of each pair are applied through
the factors, ``B``, ``D`` and ``T~ + T_H``.  The Maue block of ``T~`` and the
solve are split by rows (:func:`eitdisk.parallel.by_rows`), each block the
same BLAS or LAPACK call on its rows with its own pivots, so ``S`` keeps its
bits on any number of CPUs.  scipy is imported when the assembly runs.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bie import (NystromMesh, _check_inclusion, _check_outer, _factorize,
                  _harmonic_extension, _image, modified_double_layer,
                  normal_derivative)
from .dtn import healthy_collocation_matrix
from .exceptions import AllMasked, RankDeficientWarning, ResidualTooLarge
from .parallel import by_rows
from .regularization import (SvdFactorization, expected_noise_norm,
                             regularized_solve)

__all__ = [
    "CompletionSystem",
    "assemble_completion",
    "complete_cauchy",
    "GammaReconstruction",
    "recover_gamma_pointwise",
    "recover_gamma_lsq",
    "recover_gamma_averaged",
]

_COND_LIMIT = 1e8
# a completion residual above this multiple of the declared noise is rejected
_RESIDUAL_GUARD = 10.0


@dataclass(frozen=True, eq=False)
class CompletionSystem:
    """Assembled data-completion operator for one geometry."""

    outer: NystromMesh
    inner: NystromMesh
    completion: np.ndarray             # S: current due to the inner trace
    svd: SvdFactorization = field(repr=False)
    _solve_trace: Callable = field(repr=False)       # u -> A^-1 u by A's LU factors
    _extension: np.ndarray = field(repr=False)       # B
    _extension_flux: np.ndarray = field(repr=False)  # D
    _layer_flux: np.ndarray = field(repr=False)      # T~ + T_H
    condition: float = 0.0
    model_error_factor: float = 1.0

    def response(self, f):
        """``R f = Lambda0 f - S B f``: the outer current of ``f`` under zero trace."""
        return healthy_collocation_matrix(len(f)) @ f - self.completion @ (self._extension @ f)

    def inner_current(self, f, trace):
        """``R_i f + S_i u = -(D f + (T~ + T_H) A^-1 (u - B f))``: the inclusion
        current, normal into it, of the voltage ``f`` and the trace ``u``."""
        psi = self._solve_trace(trace - self._extension @ f)
        return -(self._extension_flux @ f + self._layer_flux @ psi)


def assemble_completion(outer, inner, model_error_factor=1.0):
    """Build and factorize the completion operator.

    ``model_error_factor`` scales the noise level used by noise-tied
    regularization inside :func:`complete_cauchy`; set it above one when the
    inclusion boundary is itself reconstructed and therefore uncertain; it
    must be finite and positive.  Raises :class:`ValueError` when it is not,
    when ``outer`` is not the unit circle or when the inner curve reaches it.
    """
    import scipy.linalg as la

    if not 0 < model_error_factor < np.inf:
        raise ValueError("model error factor must be finite and > 0, "
                         f"not {model_error_factor}")
    _check_outer(outer)
    _check_inclusion(inner)
    trace = modified_double_layer(inner, inner)                 # K~, then A
    trace += _image(inner, inner, "double_layer")
    trace += np.eye(inner.n)
    (lu, piv), condition = _factorize(trace, "completion trace", _COND_LIMIT)
    del trace
    layer_flux = normal_derivative(inner, of="modified_double_layer")
    layer_flux += _image(inner, inner, "double_flux")                 # T~ + T_H
    deriv = _harmonic_extension(outer.n, inner.points, inner.normals)     # D
    w = inner.arc_weights()
    # S = F A^-1, F = -(n/pi) D^T diag(w) + 2 w C-ordered, by the solve of A^T against
    # F^T in place on the F-ordered transpose of each row block, with its own pivots
    completion = np.multiply(deriv.T, w, order="C")
    completion *= -outer.n / np.pi
    completion += 2.0 * w
    by_rows(lambda block, piv: la.lu_solve((lu, piv), completion[block].T, trans=1,
                                           overwrite_b=True), outer.n, piv)
    # B is formed after the SVD, where A's factors, T~ + T_H, D and S are alive
    return CompletionSystem(outer, inner, completion, SvdFactorization.from_matrix(completion),
                            lambda u: la.lu_solve((lu, piv.copy()), u),  # pivots shift in place
                            _harmonic_extension(outer.n, inner.points, None), deriv,
                            layer_flux, condition, model_error_factor)


def complete_cauchy(system, f, g, reg, noise_level=0.0):
    """Recover the inclusion trace and current from one Cauchy pair: the
    voltage ``f`` and current ``g`` at the outer nodes, with ``g``'s relative
    ``noise_level``.

    The completion operator has exponentially decaying singular values, so a
    regularization strategy is mandatory.  Noise-tied strategies measure the
    absolute noise against the measured current (its expected perturbation
    magnitude under the uniform model, at the strategy's noise level or, when
    the strategy has none, at ``noise_level``), scaled by the system's
    model-error factor.  When that level reaches the data content of the
    completion equation, nothing rises above the noise: the trace and current
    returned are zero and ``info["noise_dominated"]`` is true.  Raises
    :class:`ResidualTooLarge` when the post-fit residual (the solve's
    ``info["residual"]``) exceeds ``_RESIDUAL_GUARD`` times the declared
    noise.  The current on the inclusion has its normal pointing into the
    inclusion.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (system.outer.n,) or g.shape != f.shape:
        raise ValueError("voltage and current must be vectors on the outer mesh nodes")
    b = g - system.response(f)

    delta_abs = None
    level = reg.noise_level if reg.noise_level is not None else noise_level
    if level:
        delta_abs = system.model_error_factor * expected_noise_norm(g, level)
        if reg.noise_tied and reg.safety * delta_abs >= np.linalg.norm(b):
            # nothing in the completion equation rises above the noise
            # floor; the only defensible trace is zero
            zero = np.zeros(system.inner.n)
            return zero, zero.copy(), {"noise_dominated": True}
    trace, info = regularized_solve(system.svd, b, reg, delta_abs=delta_abs)

    if noise_level and delta_abs:
        residual = info["residual"]
        if residual > _RESIDUAL_GUARD * delta_abs:
            raise ResidualTooLarge(
                f"completion residual {residual:.3e} exceeds "
                f"{_RESIDUAL_GUARD} x noise {delta_abs:.3e}")
    current = system.inner_current(f, trace)
    info["noise_dominated"] = False
    return trace, current, info


@dataclass(frozen=True, eq=False)
class GammaReconstruction:
    """Per-node impedance values for one or several Cauchy pairs."""

    theta: np.ndarray
    values: np.ndarray          # shape (pairs, nodes), NaN where masked
    average: np.ndarray
    spread: np.ndarray
    counts: np.ndarray

    def unmasked(self):
        return ~np.isnan(self.average)


def recover_gamma_pointwise(traces, currents, theta, tol_rel=0.05):
    """Masked quotients ``-current/trace``, one row per pair, and their average.

    ``traces`` and ``currents`` hold one pair as vectors or several as
    ``(pairs, nodes)`` arrays.  Nodes where ``|trace|`` falls below
    ``tol_rel`` times the largest trace magnitude over all pairs are masked
    (the quotient degenerates at zeros of the potential), and so are NaN
    traces, which mark skipped pairs.  The average, spread and count of each
    node are taken over its unmasked quotients.  Raises :class:`AllMasked`
    when every pair was skipped, every trace is zero or every node is masked.
    """
    if not 0 <= tol_rel < 1:
        raise ValueError(f"mask tolerance must lie in [0, 1), not {tol_rel}")
    traces = np.atleast_2d(np.asarray(traces, dtype=float))
    currents = np.atleast_2d(np.asarray(currents, dtype=float))
    finite = ~np.isnan(traces)
    if not finite.any():
        raise AllMasked("every pair was rejected as noise-dominated")
    top = np.max(np.abs(traces), where=finite, initial=0.0)
    if top == 0.0:
        raise AllMasked("every recovered trace is identically zero")
    keep = finite & (np.abs(np.where(finite, traces, 0.0)) >= tol_rel * top)
    safe = np.where(keep & (traces != 0.0), traces, 1.0)
    values = np.where(keep, -currents / safe, np.nan)
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
    return GammaReconstruction(np.asarray(theta), values, avg, spread, counts)


def recover_gamma_lsq(traces, currents, theta, degree):
    """Impedance coefficients in a trigonometric basis by pooled least squares.

    Minimizes ``sum_pairs sum_nodes |current + gamma(theta) trace|^2`` over
    ``gamma = c_0 + sum_m c_m cos(m t) + d_m sin(m t)`` of the given degree,
    with ``traces`` and ``currents`` as ``(pairs, nodes)`` rows.  Returns the
    coefficient vector (constant, cosines, sines) and a callable evaluating
    the fit.  Warns when the stacked system is rank deficient.
    """
    def basis(t):
        t = np.asarray(t, dtype=float)
        cols = [np.ones_like(t)]
        for m in range(1, degree + 1):
            cols += [np.cos(m * t), np.sin(m * t)]
        return np.array(cols).T

    phi = basis(theta)
    traces = np.asarray(traces, dtype=float)
    a = (traces[:, :, None] * phi).reshape(-1, phi.shape[1])
    b = -np.asarray(currents, dtype=float).ravel()
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < phi.shape[1]:
        warnings.warn("impedance basis is rank deficient on these nodes",
                      RankDeficientWarning)

    def evaluate(t):
        return basis(t) @ coef

    return coef, evaluate


def recover_gamma_averaged(system, voltages, currents, reg, noise_level=0.0,
                           tol_rel=0.05):
    """Per-pair completion and quotient, averaged node by node.

    ``voltages`` and ``currents`` hold one Cauchy pair per row, and
    ``noise_level`` is the relative noise level of every current.  Pairs
    rejected as noise-dominated are recorded as fully masked rows, and the
    smallness mask is measured over the whole pair list (see
    :func:`recover_gamma_pointwise`), so measurements whose completions are
    uniformly weak do not dilute the average.
    """
    traces = np.full((len(voltages), system.inner.n), np.nan)
    inner_currents = np.full_like(traces, np.nan)
    for k, (f, g) in enumerate(zip(voltages, currents, strict=True)):
        trace, current, info = complete_cauchy(system, f, g, reg, noise_level)
        if not info["noise_dominated"]:
            traces[k], inner_currents[k] = trace, current
    return recover_gamma_pointwise(traces, inner_currents, system.inner.theta, tol_rel)
