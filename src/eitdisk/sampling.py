"""Inclusion reconstruction by sampling the current-gap equation.

For a point ``z`` inside the unit disk, the normal derivative of the disk's
Green's function with pole at ``z`` is the Poisson kernel

    phi_z(theta) = (1 - |z|^2) / (2 pi (|z|^2 + 1 - 2 |z| cos(theta - theta_z))),

whose Fourier coefficients are ``|z|^|n| exp(-i n theta_z) / (2 pi)``.  The
linear equation ``(current gap) f_z = phi_z`` is solvable in a stable sense
only when ``z`` lies inside the inclusion, so the reciprocal solution norm

    W(z) = 1 / |f_z|

drops sharply outside it.  This module solves the regularized equation over a
grid, extracts a level set of ``W`` by marching squares, and fits the level
set with a trigonometric-polynomial curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dtn import DtnOperator
from .exceptions import (AllModesCutWarning, DegenerateFit, NoContour,
                         SingularSystem, TooCloseToBoundary)
from .geometry import BoundaryCurve
from .regularization import (RegStrategy, SvdFactorization, perturb_matrix,
                             regularized_solve)

__all__ = [
    "RADIUS_MASK",
    "GridSpec",
    "IndicatorGrid",
    "poisson_kernel",
    "poisson_rhs",
    "solve_current_gap",
    "indicator",
    "scan",
    "extract_level_set",
    "FittedCurve",
    "fit_trig_curve",
]

# points with |z| beyond this radius are never sampled (near-singular data)
RADIUS_MASK = 0.9


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid inside the unit disk."""

    nx: int = 101
    ny: int = 101
    xmin: float = -0.95
    xmax: float = 0.95
    ymin: float = -0.95
    ymax: float = 0.95

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 per axis")

    @classmethod
    def square(cls, n=101, half_width=0.95):
        return cls(n, n, -half_width, half_width, -half_width, half_width)

    @property
    def xs(self):
        return np.linspace(self.xmin, self.xmax, self.nx)

    @property
    def ys(self):
        return np.linspace(self.ymin, self.ymax, self.ny)

    def points(self):
        """All grid points, y-major, shape ``(ny*nx, 2)``."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class IndicatorGrid:
    """Indicator values over a grid; masked points hold NaN."""

    spec: GridSpec
    values: np.ndarray          # shape (ny, nx), NaN outside the mask
    mask: np.ndarray            # True where evaluated
    meta: dict = field(default_factory=dict)

    @property
    def max_value(self):
        return float(np.nanmax(self.values))


def poisson_kernel(z, theta):
    """Poisson kernel of the unit disk with pole ``z``, sampled at ``theta``."""
    z = np.asarray(z, dtype=float)
    r = float(np.hypot(z[0], z[1]))
    tz = float(np.arctan2(z[1], z[0]))
    theta = np.asarray(theta, dtype=float)
    return (1.0 - r**2) / (2.0 * np.pi * (r**2 + 1.0 - 2.0 * r * np.cos(theta - tz)))


def poisson_coefficients(z, modes):
    """Fourier coefficients ``|z|^|n| exp(-i n theta_z) / (2 pi)``."""
    z = np.asarray(z, dtype=float)
    r = float(np.hypot(z[0], z[1]))
    tz = float(np.arctan2(z[1], z[0]))
    modes = np.asarray(modes, dtype=int)
    return r ** np.abs(modes) * np.exp(-1j * modes * tz) / (2.0 * np.pi)


def poisson_rhs(z, op: DtnOperator):
    """Right-hand side of the current-gap equation in the operator's basis."""
    z = np.asarray(z, dtype=float)
    if np.hypot(z[0], z[1]) > RADIUS_MASK:
        raise TooCloseToBoundary(f"|z| > {RADIUS_MASK} is not sampled")
    if op.basis == "collocation":
        return poisson_kernel(z, op.nodes)
    return poisson_coefficients(z, op.modes)


def solve_current_gap(gap: DtnOperator, z, reg: RegStrategy):
    """Regularized solution of the current-gap equation for one point.

    Returns the solution vector in the operator's basis together with a
    diagnostics dict (chosen penalty or kept rank, attained residual).  The
    operator is decomposed on every call; :func:`scan` shares one
    decomposition across a whole grid.
    """
    b = poisson_rhs(z, gap)
    return regularized_solve(SvdFactorization.from_matrix(gap.matrix), b, reg)


def _solution_norm(x, gap, norm):
    if norm == "l2":
        return float(np.linalg.norm(x))
    if norm != "sobolev_half":
        raise ValueError(f"unknown norm {norm!r}")
    if gap.basis == "fourier":
        modes = gap.modes
        coeffs = x
    else:
        n = gap.n
        coeffs = np.fft.fft(x) / n
        modes = np.fft.fftfreq(n, 1.0 / n).astype(int)
    w = (1.0 + modes.astype(float) ** 2) ** 0.5
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2)))


def indicator(gap: DtnOperator, z, reg: RegStrategy, norm="l2"):
    """Reciprocal norm of the regularized current-gap solution at ``z``."""
    x, _ = solve_current_gap(gap, z, reg)
    return 1.0 / _solution_norm(x, gap, norm)


def _rhs_columns(gap, pts):
    if gap.basis == "collocation":
        theta = gap.nodes
        r = np.hypot(pts[:, 0], pts[:, 1])
        tz = np.arctan2(pts[:, 1], pts[:, 0])
        return (1.0 - r**2)[None, :] / (
            2.0 * np.pi * (r**2 + 1.0 - 2.0 * r[None, :] * np.cos(theta[:, None] - tz[None, :])))
    modes = gap.modes
    r = np.hypot(pts[:, 0], pts[:, 1])
    tz = np.arctan2(pts[:, 1], pts[:, 0])
    return (r[None, :] ** np.abs(modes)[:, None]
            * np.exp(-1j * np.outer(modes, tz)) / (2.0 * np.pi))


def _discrepancy_alpha_columns(s, beta2, b_perp2, targets):
    """Vectorized bisection of the discrepancy equation over rhs columns."""
    t2 = targets**2
    lo = np.full(beta2.shape[1], 1e-14 * s[0] ** 2)
    hi = np.full(beta2.shape[1], s[0] ** 2)

    def res2(alpha):
        f = alpha[None, :] / (alpha[None, :] + (s**2)[:, None])
        return np.einsum("ij,ij->j", f**2, beta2) + b_perp2

    r_lo, r_hi = res2(lo), res2(hi)
    bracket = (r_lo < t2) & (r_hi > t2)
    alpha = np.where(r_lo >= t2, lo, hi)
    lo_b, hi_b = lo.copy(), hi.copy()
    for _ in range(60):
        mid = np.sqrt(lo_b * hi_b)
        inside = res2(mid) < t2
        lo_b = np.where(inside, mid, lo_b)
        hi_b = np.where(inside, hi_b, mid)
    return np.where(bracket, np.sqrt(lo_b * hi_b), alpha)


def scan(gap: DtnOperator, grid: GridSpec, reg: RegStrategy,
         noise=None, norm="l2") -> IndicatorGrid:
    """Evaluate the indicator over every unmasked grid point.

    Optional ``noise=(delta, seed)`` perturbs the operator matrix once (the
    entrywise multiplicative model) before the shared decomposition; every
    point then reuses that decomposition, so a fixed seed reproduces the scan
    exactly.
    """
    matrix = gap.matrix
    meta = dict(gap.meta)
    if noise is not None:
        delta, seed = noise
        matrix = perturb_matrix(matrix, delta, seed)
        meta.update(noise_delta=delta, noise_seed=seed)
    svd = SvdFactorization.from_matrix(matrix)

    pts = grid.points()
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= RADIUS_MASK
    b_cols = _rhs_columns(gap, pts[inside])
    beta = svd.u.conj().T @ b_cols
    beta2 = np.abs(beta) ** 2
    bnorm2 = np.sum(np.abs(b_cols) ** 2, axis=0)
    b_perp2 = np.maximum(bnorm2 - beta2.sum(axis=0), 0.0)
    s = svd.s

    if reg.kind == "tikhonov":
        if reg.alpha is not None:
            alphas = np.full(beta2.shape[1], reg.alpha)
        else:
            targets = reg.safety * reg.noise_level * np.sqrt(bnorm2)
            alphas = _discrepancy_alpha_columns(s, beta2, b_perp2, targets)
        filt = (s[:, None] / (alphas[None, :] + (s**2)[:, None])) ** 2
        xnorm2 = np.einsum("ij,ij->j", filt, beta2)
    elif reg.kind == "cutoff":
        if reg.tau is not None:
            keep = s >= reg.tau * s[0]
        else:
            raise ValueError("grid scans need an explicit relative cutoff")
        if keep.any():
            xnorm2 = np.einsum("i,ij->j", 1.0 / s[keep] ** 2, beta2[keep])
        else:
            warnings.warn("cutoff removed every singular mode", AllModesCutWarning)
            xnorm2 = np.full(beta2.shape[1], np.nan)
    elif reg.kind == "none":
        if s[-1] <= s[0] * 1e-14:
            raise SingularSystem("unregularized scan of a singular operator",
                                 condition=np.inf)
        xnorm2 = np.einsum("i,ij->j", 1.0 / s**2, beta2)
    else:
        raise ValueError(f"unknown strategy kind {reg.kind!r}")

    if norm == "sobolev_half":
        # norm weighting requires the solution vectors; fall back per point,
        # each against this scan's own (possibly perturbed) decomposition
        w_flat = np.full(len(pts), np.nan)
        for k in np.flatnonzero(inside):
            x, _ = regularized_solve(svd, poisson_rhs(pts[k], gap), reg)
            w_flat[k] = 1.0 / _solution_norm(x, gap, norm)
    else:
        w_flat = np.full(len(pts), np.nan)
        w_flat[inside] = 1.0 / np.sqrt(xnorm2)
    values = w_flat.reshape(grid.ny, grid.nx)
    return IndicatorGrid(grid, values, inside.reshape(grid.ny, grid.nx), meta)


# ---------------------------------------------------------------------------
# level-set extraction (marching squares with segment chaining)
# ---------------------------------------------------------------------------

def _cell_segments(values, xs, ys, level):
    """Yield level-crossing segments as pairs of edge keys with coordinates."""
    ny, nx = values.shape
    segments = []
    for i in range(ny - 1):
        for j in range(nx - 1):
            corner = np.array([values[i, j], values[i, j + 1],
                               values[i + 1, j + 1], values[i + 1, j]])
            if np.any(np.isnan(corner)):
                continue
            s = corner - level
            if np.all(s > 0) or np.all(s < 0):
                continue
            xy = [(xs[j], ys[i]), (xs[j + 1], ys[i]),
                  (xs[j + 1], ys[i + 1]), (xs[j], ys[i + 1])]
            edge_keys = [("h", i, j), ("v", i, j + 1), ("h", i + 1, j), ("v", i, j)]
            crossings = []
            for e, (a, b) in enumerate([(0, 1), (1, 2), (3, 2), (0, 3)]):
                if s[a] == 0:
                    s[a] = 1e-300
                if s[b] == 0:
                    s[b] = 1e-300
                if s[a] * s[b] < 0:
                    t = s[a] / (s[a] - s[b])
                    xa, ya = xy[a]
                    xb, yb = xy[b]
                    crossings.append((edge_keys[e], (xa + t * (xb - xa), ya + t * (yb - ya))))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                # saddle cell: pair the crossings by the sign of the center
                center = s.mean()
                if (s[0] > 0) == (center > 0):
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def extract_level_set(grid: IndicatorGrid, threshold_rel=0.2):
    """Points of the largest closed level-set component of the indicator.

    The level is ``threshold_rel`` times the largest indicator value.  Cells
    touching masked points are skipped, so a contour escaping the mask cannot
    close and is rejected.  The returned points are ordered counterclockwise
    by polar angle about their centroid.
    """
    if not 0 < threshold_rel < 1:
        raise NoContour(f"relative threshold {threshold_rel} admits no level set")
    level = threshold_rel * grid.max_value
    segments = _cell_segments(grid.values, grid.spec.xs, grid.spec.ys, level)
    if not segments:
        raise NoContour("level set is empty inside the mask")

    adjacency = {}
    coords = {}
    for (ka, pa), (kb, pb) in segments:
        coords[ka] = pa
        coords[kb] = pb
        adjacency.setdefault(ka, []).append(kb)
        adjacency.setdefault(kb, []).append(ka)

    visited = set()
    loops = []
    for start in adjacency:
        if start in visited or len(adjacency[start]) != 2:
            continue
        loop = [start]
        visited.add(start)
        prev, cur = None, start
        closed = False
        while True:
            nbrs = [k for k in adjacency[cur] if k != prev]
            if not nbrs:
                break
            nxt = nbrs[0]
            if nxt == start:
                closed = True
                break
            if nxt in visited or len(adjacency.get(nxt, [])) != 2:
                break
            loop.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        if closed and len(loop) >= 3:
            loops.append(loop)
    if not loops:
        raise NoContour("level set does not close inside the mask")

    def loop_area(keys):
        p = np.array([coords[k] for k in keys])
        x, y = p[:, 0], p[:, 1]
        return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    best = max(loops, key=loop_area)
    pts = np.array([coords[k] for k in best])
    center = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    return pts[np.argsort(ang)]


@dataclass(frozen=True)
class FittedCurve:
    """Trigonometric-polynomial fit of an extracted boundary."""

    degree: int
    cos_coef: np.ndarray      # shape (2, degree)
    sin_coef: np.ndarray
    smoothing: float

    def to_curve(self) -> BoundaryCurve:
        return BoundaryCurve.trig(self.cos_coef, self.sin_coef)


def fit_trig_curve(points, degree, smoothing=0.0):
    """Least-squares trigonometric fit of boundary points.

    Each coordinate is expanded as ``sum_m a_m cos(m t) + b_m sin(m t)`` with
    ``t`` the polar angle of each point (the shape is assumed star-shaped
    about the origin).  ``smoothing`` weights a diagonal penalty with entry
    ``(1 + m^2)^2`` on degree-``m`` coefficients, the squared second-order
    Sobolev seminorm of the fitted coordinate functions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (k, 2)")
    if len(pts) < 2 * degree + 1:
        raise ValueError(f"{len(pts)} points cannot determine degree {degree}")
    if smoothing < 0:
        raise ValueError("smoothing weight must be nonnegative")
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    m = np.arange(1, degree + 1)
    design = np.concatenate([np.cos(np.outer(ang, m)), np.sin(np.outer(ang, m))], axis=1)
    penalty = np.sqrt(smoothing) * np.diag(np.tile((1.0 + m**2) ** 2, 2) ** 0.5)
    a_full = np.vstack([design, penalty])
    cos_coef = np.zeros((2, degree))
    sin_coef = np.zeros((2, degree))
    for p in range(2):
        rhs = np.concatenate([pts[:, p], np.zeros(2 * degree)])
        sol, *_ = np.linalg.lstsq(a_full, rhs, rcond=None)
        cos_coef[p] = sol[:degree]
        sin_coef[p] = sol[degree:]
    fitted = FittedCurve(degree, cos_coef, sin_coef, smoothing)
    jac = fitted.to_curve().jacobian(np.linspace(0, 2 * np.pi, 256, endpoint=False))
    if jac.min() <= max(1e-14, 1e-9 * jac.max()):
        raise DegenerateFit("fitted curve Jacobian vanishes")
    return fitted
