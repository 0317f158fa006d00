"""Exact series solutions for the unit disk with a concentric circular inclusion.

Separation of variables gives closed forms for the boundary current maps when
the inclusion boundary is the circle of radius ``rho`` inside the unit disk.
Their mode multipliers, and the operators :func:`gap_operator` assembles from
them, are the independent oracle against which the Nystrom computations of the
package are checked.

For a boundary voltage with Fourier coefficients ``f_n`` the healthy-disk
potential is ``f_0 + sum f_n r^|n| e^(i n t)`` and its boundary current
multiplies each mode by ``|n|`` (``dtn.healthy_fourier_matrix``).  With a
grounded (Dirichlet) inclusion the annulus potential is

    u0 = f_0 ln(rho/r)/ln(rho)
         + sum f_n (r^|n| - rho^(2|n|) r^(-|n|)) / (1 - rho^(2|n|)) e^(i n t)

and the resulting current difference (healthy minus defective) multiplies
mode ``n != 0`` by ``-2 |n| rho^(2|n|) / (1 - rho^(2|n|))`` and the constant
mode by ``1/ln(rho)``.

With a constant impedance ``gamma`` on the inclusion, each nonzero mode picks
up a reflection coefficient

    sigma_n = (|n| - rho*gamma) / (|n| + rho*gamma),

and the radial part becomes ``r^|n| + sigma_n rho^(2|n|) r^(-|n|)`` (scaled to
match the outer voltage).  The constant mode solves a two-point boundary
problem for ``a + b ln r``; eliminating the constants gives

    sigma_0 = -gamma / (1/rho - gamma*ln(rho)),

with potential ``f_0 (1 - sigma_0 ln r)``.  An alternative constant-mode
value ``-gamma / (ln(rho) - 1/rho)`` circulates in the literature; it fails
the conducting limit (``gamma -> inf`` must reproduce the Dirichlet value
``1/ln(rho)``) and disagrees with the integral-equation solver, so it is kept
only behind the ``printed=True`` flag for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtn import DtnOperator, circulant

__all__ = [
    "AnnulusConfig",
    "reflection_coefficient",
    "gap_coefficient",
    "inner_trace_coefficient",
    "inner_flux_coefficient",
    "truncation_error",
    "gap_operator",
]


@dataclass(frozen=True)
class AnnulusConfig:
    """Concentric geometry: inclusion radius, boundary condition, mode order."""

    rho: float
    bc: str = "dirichlet"          # "dirichlet" | "impedance"
    gamma: float | None = None     # constant impedance value
    order: int = 19

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("inclusion radius must lie in (0, 1)")
        if self.bc not in ("dirichlet", "impedance"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == "impedance":
            if self.gamma is None or self.gamma < 0:
                raise ValueError("impedance condition needs gamma >= 0")
        if self.order < 0:
            raise ValueError("order must be nonnegative")


def reflection_coefficient(cfg: AnnulusConfig, n, printed=False):
    """Ratio of the decaying to the growing radial mode set by the impedance.

    For ``n = 0`` the value is derived from the two-point condition on
    ``a + b ln r``; pass ``printed=True`` for the alternative constant-mode
    formula kept for comparison (see module docstring).
    """
    if cfg.bc != "impedance":
        raise ValueError("reflection coefficients are defined for the impedance condition")
    g, rho = cfg.gamma, cfg.rho
    if n == 0:
        if printed:
            return -g / (np.log(rho) - 1.0 / rho)
        return -g / (1.0 / rho - g * np.log(rho))
    a = abs(n)
    return (a - rho * g) / (a + rho * g)


def gap_coefficient(cfg: AnnulusConfig, n):
    """Mode-``n`` multiplier of the current difference (healthy minus defective)."""
    rho = cfg.rho
    a = abs(n)
    if cfg.bc == "dirichlet":
        if n == 0:
            return 1.0 / np.log(rho)
        return -2.0 * a * rho ** (2 * a) / (1.0 - rho ** (2 * a))
    if n == 0:
        return reflection_coefficient(cfg, 0)
    sn = reflection_coefficient(cfg, n)
    return 2.0 * a * sn * rho ** (2 * a) / (1.0 + sn * rho ** (2 * a))


def inner_trace_coefficient(cfg: AnnulusConfig, n):
    """Mode-``n`` value of the annulus potential on the inclusion circle
    (per unit outer coefficient)."""
    rho = cfg.rho
    if cfg.bc == "dirichlet":
        return 0.0
    a = abs(n)
    if n == 0:
        return 1.0 - reflection_coefficient(cfg, 0) * np.log(rho)
    sn = reflection_coefficient(cfg, n)
    return rho**a * (1.0 + sn) / (1.0 + sn * rho ** (2 * a))


def inner_flux_coefficient(cfg: AnnulusConfig, n):
    """Mode-``n`` inner-boundary current of the annulus potential, with the
    normal pointing into the inclusion (per unit outer coefficient)."""
    rho = cfg.rho
    a = abs(n)
    if cfg.bc == "dirichlet":
        if n == 0:
            return 1.0 / (rho * np.log(rho))
        return -(a / rho) * (rho**a + rho**a) / (1.0 - rho ** (2 * a))
    if n == 0:
        return reflection_coefficient(cfg, 0) / rho
    sn = reflection_coefficient(cfg, n)
    return -(a / rho) * rho**a * (1.0 - sn) / (1.0 + sn * rho ** (2 * a))


def truncation_error(cfg: AnnulusConfig, order_low, order_high):
    """Operator-norm distance between two series truncations.

    Measured as the largest mode coefficient over ``order_low < |n| <=
    order_high`` weighted by ``(1+n^2)^(-1/2)``, the per-mode gain of a
    diagonal map from voltage (+1/2) to current (-1/2) regularity.
    """
    if order_high < order_low:
        raise ValueError("order_high must be >= order_low")
    worst = 0.0
    for n in range(order_low + 1, order_high + 1):
        w = (1.0 + n * n) ** -0.5
        worst = max(worst, abs(gap_coefficient(cfg, n)) * w)
    return worst


def gap_operator(cfg: AnnulusConfig, basis="collocation", n=64, modes=None):
    """Assemble the truncated current-gap map as a dense operator.

    ``basis="collocation"`` returns the circulant on ``n`` nodes of symbol
    ``gap_coefficient(cfg, m)`` for ``|m| <= order``, which needs
    ``order < n/2``; ``basis="fourier"`` returns the diagonal coefficient map
    over ``modes`` (default symmetric ``-order..order``).
    """
    if basis == "fourier":
        if modes is None:
            modes = np.arange(-cfg.order, cfg.order + 1)
        modes = np.asarray(modes, dtype=int)
        mat = np.diag([complex(gap_coefficient(cfg, m)) if abs(m) <= cfg.order else 0.0
                       for m in modes])
        return DtnOperator("fourier", mat, modes)
    if 2 * cfg.order >= n:
        raise ValueError(f"n = {n} nodes resolve modes below n/2 only, "
                         f"not order = {cfg.order}")
    symbol = [gap_coefficient(cfg, m) for m in range(cfg.order + 1)]
    return DtnOperator("collocation", circulant(symbol, n))
