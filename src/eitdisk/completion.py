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

On the unit circle ``I - K_mm = I + J/n`` (``J`` the all-ones matrix) has
the inverse ``P = I - J/(2n)``, so the outer density is eliminated and only
the inclusion-sized Schur complement ``S = I + K_ii~ + K_mi P K_im~`` is
LU-factorized; its condition is guarded by LAPACK's 1-norm estimate from those
factors (see :func:`eitdisk.bie._factorize`).  Like ``_factorize``,
:func:`assemble_completion` imports ``scipy.linalg`` only when it runs, so
scipy loads on the first LU and never with the module.  The four maps ``R``,
``S``, ``R_i`` and ``S_i`` are the outer flux rows ``[T_mm T_im~]`` and the
inner current rows ``-[T_mi T_ii~]``, written ``[R1 R2]``, composed with the
block inverse: with ``X = R1 P`` and ``Z = (R2 + X K_im~) S^-1``, formed by one
transposed solve against the Schur factors, the composition is
``[X - Z K_mi P, Z]``.  The outer hypersingular block ``T_mm`` is the
closed-form circle block of :func:`eitdisk.bie.normal_derivative`.

:func:`assemble_completion` keeps only the arrays still to be read.  In
order, it forms ``K_im~``; the cross flux blocks ``T_mi`` and ``T_im~``,
whose kernels peak at five matrices of their own size (the other kernels at
four); ``X`` in its own buffer, with
``P`` applied in place; the right-hand sides ``X K_im~ + R2`` in ``Z``'s
buffer, the product first; ``K_mi P``; and ``S``, summed in place on
``K_ii~``.  ``K_im~`` and
``S`` are dropped once ``S`` is factorized, the LU factors once the
right-hand sides are solved in place, and ``K_mi P`` once ``X`` is
composed.  ``X`` is negated in place, so when the completion operator is
factorized, only ``X`` and ``Z`` are alive: the four maps are views into
them.  From 256 nodes its factorization is a range finder, which keeps one
copy of the operator as its residual.  The in-place steps are the operations of an assembly on fresh arrays,
in the same order and memory layout, so every map keeps its bits.  With
``n`` nodes on both curves the traced peak is ``10 n^2`` doubles: the kernel
of ``K_ii~`` at four, while ``X``, ``Z``, ``K_im~`` and ``K_mi P`` hold six.

The dense steps are split by rows (:func:`eitdisk.parallel.by_rows`): the
products ``X K_im~``, ``K_mi P K_im~`` and ``Z K_mi P``, the Maue block of
``T_ii~``, and the transposed Schur solve.  Each runs in contiguous blocks of
at least ``_MIN_ROWS`` rows, one per usable CPU, the first on the calling
thread; below twice that many rows, as at the README's 64 nodes, it runs on
the calling thread alone and starts no thread.  A block is the same BLAS or
LAPACK call on its own rows, written into its rows of ``X``, ``Z`` or a
buffer the calling thread allocated, so every map keeps its bits on any
number of CPUs.  ``lu_solve`` shifts the pivot array in place while it runs,
so every block of the Schur solve gets its own copy of ``piv``, made on the
calling thread before the block is handed over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bie import (NystromMesh, _check_inclusion, _check_outer, _factorize,
                  _outer_inverse, double_layer, modified_double_layer,
                  normal_derivative)
from .exceptions import AllMasked, RankDeficientWarning, ResidualTooLarge
from .parallel import by_rows, matmul_by_rows
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
    n_m, n_i = outer.n, inner.n
    kim = modified_double_layer(inner, outer)
    # the two cross flux kernels peak highest (five blocks); they are formed
    # before the buffers of X and Z, and each block is dropped once read
    tmi = normal_derivative(outer, inner)
    tim = normal_derivative(inner, outer, of="modified_double_layer")
    # X = R1 P: P applied in place to X^T = [T_mm^T  -T_mi^T], an F-ordered
    # array as _outer_inverse gets it from hstack
    x = np.empty((n_m + n_i, n_m))
    x[:n_m] = normal_derivative(outer, outer)
    np.negative(tmi, out=x[n_m:])
    del tmi
    xt = x.T
    xt -= xt.sum(axis=0) / (2 * n_m)
    # the right-hand sides X K_im~ + R2 of Z's solve in Z's buffer, the product
    # first so that no worker allocates (y + x rounds as x + y)
    z = matmul_by_rows(x, kim, np.empty((n_m + n_i, n_i)))
    z[:n_m] += tim
    del tim
    z[n_m:] -= normal_derivative(inner, inner, of="modified_double_layer")
    kmi_p = _outer_inverse(double_layer(outer, inner).T).T     # K_mi P
    schur = modified_double_layer(inner, inner)                 # K_ii~, then S
    schur += np.eye(n_i)
    schur += matmul_by_rows(kmi_p, kim, np.empty((n_i, n_i)))
    del kim
    (lu, piv), condition = _factorize(schur, "completion trace", _COND_LIMIT)
    del schur
    # Z = (R2 + X K_im~) S^-1, as the solve of S^T against Z^T, in place on
    # the F-ordered transpose of each row block, each with its own pivots
    by_rows(lambda block, piv: la.lu_solve((lu, piv), z[block].T, trans=1, overwrite_b=True),
            len(z), piv)
    del lu, piv
    x -= matmul_by_rows(z, kmi_p, np.empty_like(x))
    del kmi_p
    np.negative(x, out=x)
    response, completion = x[:n_m], z[:n_m]
    inner_response, inner_completion = x[n_m:], z[n_m:]
    return CompletionSystem(outer, inner, response, completion,
                            inner_response, inner_completion,
                            SvdFactorization.from_matrix(completion),
                            condition, model_error_factor)


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
    b = g - system.response @ f

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
    current = system.inner_response @ f + system.inner_completion @ trace
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
