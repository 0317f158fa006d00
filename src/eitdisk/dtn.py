"""Dense matrix representations of boundary current maps.

A :class:`DtnOperator` stores the discretization of a voltage-to-current map
(or of the difference of two such maps) in one of two declared bases:

- ``collocation``: the matrix sends node values ``f(theta_j)`` to node values
  of the current at the same ``n`` equally spaced nodes.
- ``fourier``: the matrix sends coefficients over a declared mode list to
  coefficients over the same list.  The mode list is either one-sided
  ``0..N`` or symmetric ``-N..N``.

Collocation matrices act on the band of modes representable at ``n`` nodes;
the unpaired highest mode is omitted from the healthy map because a real
even discretization cannot carry its current.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

__all__ = [
    "DtnOperator",
    "healthy_collocation_matrix",
    "healthy_fourier_matrix",
    "gap_from_lambda0",
    "to_real_trig_basis",
]


@dataclass(frozen=True)
class DtnOperator:
    """A dense voltage-to-current matrix in a declared basis; the geometry and
    boundary condition behind it are arguments of :func:`eitdisk.io.write_dtn`."""

    basis: str                       # "collocation" | "fourier"
    matrix: np.ndarray
    modes: np.ndarray | None = None  # mode list for the fourier basis

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if self.basis == "fourier":
            if self.modes is None or len(self.modes) != m.shape[0]:
                raise ValueError("fourier basis requires a matching mode list")
            object.__setattr__(self, "modes", np.asarray(self.modes, dtype=int))
        elif self.basis != "collocation":
            raise ValueError(f"unknown basis {self.basis!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def nodes(self):
        """Collocation angles ``theta_j = 2 pi j / n`` (collocation basis only)."""
        return 2.0 * np.pi * np.arange(self.n) / self.n


def healthy_collocation_matrix(n):
    """Node-value matrix of the healthy-disk current map on ``n`` nodes.

    The continuous map multiplies mode ``exp(i m theta)`` by ``|m|``; the
    discrete version applies this over the representable band ``|m| < n/2``.
    The matrix is a real symmetric circulant.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(1, n // 2)
    row = (2.0 * m[None, :] * np.cos(np.outer(theta, m))).sum(axis=1) / n
    return la.toeplitz(row)


def healthy_fourier_matrix(modes):
    """Diagonal healthy-disk current map ``c_m -> |m| c_m`` over ``modes``."""
    modes = np.asarray(modes, dtype=int)
    return np.diag(np.abs(modes).astype(float))


def gap_from_lambda0(lambda0):
    """Current-gap operator ``healthy - lambda0`` in the operator's own basis."""
    if lambda0.basis == "collocation":
        gap = healthy_collocation_matrix(lambda0.n) - lambda0.matrix
    else:
        gap = healthy_fourier_matrix(lambda0.modes) - lambda0.matrix
    return replace(lambda0, matrix=gap)


def to_real_trig_basis(op):
    """Re-express a symmetric-mode fourier operator in the orthonormal real
    trigonometric basis ``{1/sqrt(2pi), cos(m t)/sqrt(pi), sin(m t)/sqrt(pi)}``.

    The voltage-to-current difference map is symmetric with respect to the
    boundary L2 pairing, so the returned real matrix should be symmetric up
    to discretization error.
    """
    if op.basis != "fourier":
        raise ValueError("real-basis conversion requires a fourier operator")
    modes = op.modes
    order = modes.max()
    if not np.array_equal(modes, np.arange(-order, order + 1)):
        raise ValueError("real-basis conversion requires symmetric modes -N..N")
    nb = len(modes)
    C = np.zeros((nb, nb), dtype=complex)
    C[order, 0] = 1.0 / np.sqrt(2 * np.pi)
    for m in range(1, order + 1):
        col_c = 2 * m - 1
        col_s = 2 * m
        C[order + m, col_c] = 0.5 / np.sqrt(np.pi)
        C[order - m, col_c] = 0.5 / np.sqrt(np.pi)
        C[order + m, col_s] = -0.5j / np.sqrt(np.pi)
        C[order - m, col_s] = 0.5j / np.sqrt(np.pi)
    R = 2 * np.pi * (C.conj().T @ op.matrix @ C)
    return R.real, R.imag
