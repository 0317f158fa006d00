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

A scan decomposes the (possibly perturbed) operator once and sends the
unmasked points through :func:`eitdisk.regularization.spectral_filter` in
blocks of ``_CHUNK`` columns.  The norm is the l2 norm of the solution in the
operator's basis; ``Vh`` is unitary, so it comes from the real filter and
``|U^H b|^2`` alone, and no solution is formed.  :func:`indicator` does the
same for one point.

The per-point solves are independent and numpy releases the GIL in them, so
each block is filtered in column slices on a pool of one thread per usable
CPU (one thread for a single point), with the same bits as on one thread.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dtn import DtnOperator
from .exceptions import (AllModesCutWarning, DegenerateFit, NoContour,
                         NoiseDominates, TooCloseToBoundary)
from .geometry import BoundaryCurve
from .regularization import (RegStrategy, SvdFactorization, perturb_matrix,
                             spectral_filter)

__all__ = [
    "RADIUS_MASK",
    "GridSpec",
    "IndicatorGrid",
    "poisson_kernel",
    "poisson_rhs",
    "indicator",
    "scan",
    "extract_level_set",
    "FittedCurve",
    "fit_trig_curve",
]

# points with |z| beyond this radius are never sampled (near-singular data)
RADIUS_MASK = 0.9
# grid points per block: keeps each (modes x points) work array to a few MB.
# The right-hand sides and their projection round differently in other sizes.
_CHUNK = 8192
# fewest columns a thread filters.  numpy sums a contiguous one-column array
# over its modes pairwise, which rounds unlike a block; narrow views happen not
# to, but the bits should not rest on that, and tiny slices gain nothing.
_MIN_SLICE = 16


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
    def square(cls, n=101):
        return cls(n, n)

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


def poisson_rhs(z, op: DtnOperator):
    """Right-hand side of the current-gap equation in the operator's basis."""
    z = np.asarray(z, dtype=float)
    if np.hypot(z[0], z[1]) > RADIUS_MASK:
        raise TooCloseToBoundary(f"|z| > {RADIUS_MASK} is not sampled")
    return _rhs_columns(op, z[None, :])[:, 0]


def _rhs_columns(gap, pts):
    """Right-hand sides for points of shape ``(P, 2)``, one column per point."""
    r = np.hypot(pts[:, 0], pts[:, 1])
    tz = np.arctan2(pts[:, 1], pts[:, 0])
    if gap.basis == "collocation":
        theta = gap.nodes
        return (1.0 - r**2)[None, :] / (
            2.0 * np.pi * (r**2 + 1.0 - 2.0 * r[None, :] * np.cos(theta[:, None] - tz[None, :])))
    modes = gap.modes
    return (r[None, :] ** np.abs(modes)[:, None]
            * np.exp(-1j * np.outer(modes, tz)) / (2.0 * np.pi))


def _worker_count(columns):
    """Threads for ``columns`` points: the CPUs this process may use, capped
    so that every thread gets at least ``_MIN_SLICE`` columns."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, columns // _MIN_SLICE))


def _slice_norms(s, reg, beta2, b2):
    """l2 norms of one column slice's solutions, ``sqrt(sum F^2 |beta|^2)``."""
    filt, _ = spectral_filter(s, beta2, b2, reg)
    return np.sqrt(np.einsum("ij,ij,ij->j", filt, filt, beta2))


def _gather(futures, columns):
    """Slice results in order; :class:`NoiseDominates` counts the whole block."""
    errors = [f.exception() for f in futures]
    dominated = [e for e in errors if isinstance(e, NoiseDominates)]
    if dominated:
        raise NoiseDominates(sum(e.columns for e in dominated), columns) from dominated[0]
    return [f.result() for f in futures]


def _indicator_values(svd, gap, pts, reg):
    """Indicator at points ``(P, 2)``, evaluated in blocks of ``_CHUNK`` columns.

    The calling thread forms each block's right-hand sides, their projection
    and squared norms, whose rounding depends on the block width.  Worker
    threads filter one contiguous column slice each and take its l2 norms.  A
    point whose cutoff removes every mode gets NaN, and one
    :class:`AllModesCutWarning` reports any such point.
    """
    values = np.empty(len(pts))
    with ThreadPoolExecutor(_worker_count(len(pts))) as pool:
        for start in range(0, len(pts), _CHUNK):
            b = _rhs_columns(gap, pts[start:start + _CHUNK])
            beta, b2 = svd.project(b), np.sum(np.abs(b) ** 2, axis=0)
            del b  # only its projection and norm are needed from here on
            beta2 = np.abs(beta) ** 2
            del beta  # the l2 norms need only its squared magnitude
            edges = np.linspace(0, len(b2), _worker_count(len(b2)) + 1).astype(int)
            args = [(svd.s, reg, beta2[:, a:z], b2[a:z])
                    for a, z in zip(edges[:-1], edges[1:])]
            xnorm = np.concatenate(
                _gather([pool.submit(_slice_norms, *arg) for arg in args], len(b2)))
            values[start:start + len(b2)] = np.divide(1.0, xnorm, where=xnorm > 0,
                                                      out=np.full_like(xnorm, np.nan))
    if np.isnan(values).any():
        warnings.warn("cutoff removed every singular mode", AllModesCutWarning)
    return values


def indicator(gap: DtnOperator, z, reg: RegStrategy):
    """Reciprocal l2 norm of the regularized current-gap solution at ``z``.

    NaN (with :class:`AllModesCutWarning`) when the cutoff removes every mode.
    """
    poisson_rhs(z, gap)  # rejects points outside the sampling mask
    svd = SvdFactorization.from_matrix(gap.matrix)
    return float(_indicator_values(svd, gap, np.asarray(z, dtype=float)[None, :], reg)[0])


def scan(gap: DtnOperator, grid: GridSpec, reg: RegStrategy,
         noise=None) -> IndicatorGrid:
    """Evaluate the indicator over every unmasked grid point.

    Optional ``noise=(delta, seed)`` perturbs the operator matrix once (the
    entrywise multiplicative model) before the shared decomposition; every
    point then reuses that decomposition, so a fixed seed reproduces the scan
    exactly.  The points go through the regularization kernel in blocks of
    ``_CHUNK`` columns, so memory stays bounded on fine grids; other block
    sizes agree to rounding.  Each block is filtered on one thread per usable
    CPU, and the result is the same bit for bit on any number of CPUs.
    """
    matrix = gap.matrix
    if noise is not None:
        matrix = perturb_matrix(matrix, *noise)
    svd = SvdFactorization.from_matrix(matrix)

    pts = grid.points()
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= RADIUS_MASK
    w_flat = np.full(len(pts), np.nan)
    w_flat[inside] = _indicator_values(svd, gap, pts[inside], reg)
    values = w_flat.reshape(grid.ny, grid.nx)
    return IndicatorGrid(grid, values, inside.reshape(grid.ny, grid.nx))


# ---------------------------------------------------------------------------
# level-set extraction: marching squares over the crossed cells, then chaining
# ---------------------------------------------------------------------------

def _cell_segments(values, xs, ys, level):
    """Level-crossing segments as pairs of edge keys with coordinates.

    Array operations find the crossed cells: no NaN corner, corners neither all
    above nor all below ``level``.  Each, in row-major order, interpolates its
    crossed edges (zero corners count as 1e-300); saddles pair by the corner mean."""
    corners = np.stack([values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1]])
    shifted = corners - level
    crossed = ~(np.isnan(corners).any(axis=0) | (shifted > 0).all(axis=0)
                | (shifted < 0).all(axis=0))
    segments = []
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(crossed))):
        s = shifted[:, i, j]
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
