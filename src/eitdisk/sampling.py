"""Inclusion reconstruction by sampling the current-gap equation.

For a point ``z`` inside the unit disk, the normal derivative of the disk's
Green's function with pole at ``z`` is the Poisson kernel

    phi_z(theta) = (1 - |z|^2) / (2 pi (|z|^2 + 1 - 2 |z| cos(theta - theta_z))),

whose Fourier coefficients are ``|z|^|n| exp(-i n theta_z) / (2 pi)``, that
is ``conj(z)^n / (2 pi)`` for ``n >= 0`` and its conjugate for ``-n``.  The
scan forms neither expression as written.  At the collocation nodes it takes
the denominator as the squared distance from ``z`` to each node,
``(cos theta - x)^2 + (sin theta - y)^2``, from differences: the form above
cancels near the mask radius, where it falls to about ``(1 - |z|)^2``.
Against a long-double reference the difference form is off by at most about
2e-15 relative, the form above by up to 3e-14.  The Fourier coefficients are
a running product of ``conj(z)``, within about 8e-16 relative, where a power
times a complex ``exp`` was off by up to 5e-15.  Only one cosine and one sine
per node are transcendental.

The linear equation ``(current gap) f_z = phi_z`` is solvable in a stable
sense only when ``z`` lies inside the inclusion, so the reciprocal solution
norm

    W(z) = 1 / |f_z|

drops sharply outside it.  This module solves the regularized equation over a
grid, extracts a level set of ``W`` by marching squares, and fits it with a
trigonometric-polynomial ``BoundaryCurve``, the curve type every stage takes.

A scan decomposes the (possibly perturbed) operator once and sends the
unmasked points through :func:`eitdisk.regularization.spectral_filter` in
blocks of ``_CHUNK`` columns.  The norm is the l2 norm of the solution in the
operator's basis; ``Vh`` is unitary, so it comes from the real filter and
``|U^H b|^2`` alone, and no solution is formed.  :func:`indicator` does the
same for one point.

The per-point solves are independent and numpy releases the GIL in them, so
each block is filtered in slices of ``_SLICE`` columns on a pool of threads,
at most one per usable CPU and one per slice.  Each slice forms the table of
its discrepancy roots on its worker, a matrix product that rounds by its
width; the slices are cut at fixed columns, whatever the number of CPUs, so
the scan has the same bits on any number of them.  While the workers filter
one block, the calling thread forms the next: its right-hand sides, on one
buffer, and their projection, the block's one large BLAS call.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dtn import DtnOperator
from .exceptions import (AllModesCutWarning, DegenerateFit, NoContour,
                         NoiseDominates, SeveralLoopsWarning, TooCloseToBoundary)
from .geometry import BoundaryCurve
from .parallel import worker_count
from .regularization import RegStrategy, SvdFactorization, perturb_matrix, spectral_filter

__all__ = [
    "RADIUS_MASK",
    "GridSpec",
    "IndicatorGrid",
    "poisson_kernel",
    "poisson_rhs",
    "indicator",
    "scan",
    "extract_level_set",
    "fit_trig_curve",
]

# points with |z| beyond this radius are never sampled (near-singular data)
RADIUS_MASK = 0.9
# grid points per block: keeps each (modes x points) work array to a few MB.
# The projection and the column sums of |b|^2 round differently in other
# sizes; each right-hand side entry is formed on its own and does not.
_CHUNK = 8192
# columns a worker filters at once, cut from each block at fixed offsets, so
# that no bit depends on the number of CPUs: the discrepancy root's table is
# a matrix product that rounds by its width.  A multiple of 8, OpenBLAS's
# column tile, keeps every slice but a block's last clear of a partial tile,
# whose columns round unlike the others and by the BLAS thread count.
_SLICE = 1024


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid inside the unit disk."""

    nx: int
    ny: int
    xmin: float = -0.95
    xmax: float = 0.95
    ymin: float = -0.95
    ymax: float = 0.95

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        for low, high in (("xmin", "xmax"), ("ymin", "ymax")):
            a, b = getattr(self, low), getattr(self, high)
            if not np.isfinite(a) or not np.isfinite(b) or not a < b:
                raise ValueError(f"grid bounds {low}={a!r} and {high}={b!r} must be "
                                 f"finite with {low} < {high}")

    @classmethod
    def square(cls, n):
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


@dataclass(frozen=True, eq=False)
class IndicatorGrid:
    """Indicator values over a grid; masked points hold NaN."""

    spec: GridSpec
    values: np.ndarray          # shape (ny, nx), NaN outside the mask
    mask: np.ndarray            # True where evaluated

    @property
    def max_value(self):
        return float(np.nanmax(self.values))


def poisson_kernel(z, theta):
    """Poisson kernel of the unit disk with pole ``z``, sampled at ``theta``.

    It keeps the cancelling form ``(1 - r^2) / (2 pi (r^2 + 1 - 2 r cos))`` on
    purpose: no pipeline stage calls it, and the tests use it as a reference
    independent of the scan's :func:`_rhs_columns`.  Against a long-double
    reference, near the mask radius, it is off by up to 3.2e-14 relative,
    where ``_rhs_columns`` is off by 1.6e-15.
    """
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
    x, y = np.ascontiguousarray(pts.T)
    if gap.basis == "collocation":
        # (1 - |z|^2) / (2 pi ((cos theta - x)^2 + (sin theta - y)^2)) in the
        # expression's own operations and order, so the bits are its own, one
        # node's row at a time, so that the row and its work buffer stay in cache.
        # The squared distance from the node comes from differences, so it
        # keeps its digits near the mask, where r^2 + 1 - 2 r cos(theta - tz)
        # cancels; the only transcendentals are one cos and sin per node
        num = 1.0 - (x * x + y * y)
        out = np.empty((gap.n, len(x)))
        dy = np.empty(len(x))
        for row, c, s in zip(out, np.cos(gap.nodes), np.sin(gap.nodes)):
            np.subtract(c, x, out=row)
            row *= row
            np.subtract(s, y, out=dy)
            dy *= dy
            row += dy
            row *= 2.0 * np.pi
            np.divide(num, row, out=row)
        return out
    # conj(z)^|m| / (2 pi) by a running product, conjugated for negative m
    m = np.abs(gap.modes)
    powers = np.empty((m.max() + 1, len(pts)), dtype=complex)
    powers[0] = 1.0 / (2.0 * np.pi)
    zbar = x - 1j * y
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], zbar, out=powers[k])
    out = powers[m]
    return np.conjugate(out, out=out, where=(gap.modes < 0)[:, None])


def _slice_norms(svd, reg, beta2, b2):
    """l2 norms of one column slice's solutions, ``sqrt(sum F^2 |beta|^2)``."""
    filt, _ = spectral_filter(svd, beta2, b2, reg)
    return np.sqrt(np.einsum("ij,ij,ij->j", filt, filt, beta2))


def _store(values, block, futures):
    """Write the indicator of one handed-over block once its slices finish;
    :class:`NoiseDominates` counts the whole block."""
    errors = [f.exception() for f in futures]
    dominated = [e for e in errors if isinstance(e, NoiseDominates)]
    if dominated:
        raise NoiseDominates(sum(e.columns for e in dominated),
                             len(values[block])) from dominated[0]
    xnorm = np.concatenate([f.result() for f in futures])
    values[block] = np.divide(1.0, xnorm, where=xnorm > 0, out=np.full_like(xnorm, np.nan))


def _abs2(a):
    """``|a|^2``; a real ``a`` is squared in place, so the caller gives it up."""
    out = a if np.isrealobj(a) else np.abs(a)
    return np.square(out, out=out)


def _submit_block(pool, svd, gap, pts, reg):
    """Form one block's squared projections and norms on this thread, hand
    its slices of ``_SLICE`` columns to the pool, and return their futures."""
    b = _rhs_columns(gap, pts)
    beta2 = _abs2(svd.project(b))
    b2 = _abs2(b).sum(axis=0)
    return [pool.submit(_slice_norms, svd, reg, beta2[:, a:a + _SLICE], b2[a:a + _SLICE])
            for a in range(0, len(b2), _SLICE)]


def _indicator_values(svd, gap, pts, reg):
    """Indicator at points ``(P, 2)``, evaluated in blocks of ``_CHUNK`` columns.

    The calling thread forms each block's right-hand sides, their projection
    and squared norms, whose rounding depends on the block width.  Worker
    threads filter its slices of ``_SLICE`` columns and take their l2 norms.
    The two overlap: the calling thread forms the next block while the
    workers filter this one, and gathers a block only once the next is
    handed over, so at most one formed block waits.  The projection stays on
    the calling thread: each thread that calls BLAS gets a buffer of its own,
    and the few MB a large product touches in it outlive the pool and raise
    the peak memory of whatever the process runs next.  A point whose cutoff
    removes every mode gets NaN, and one :class:`AllModesCutWarning` reports
    any such point.
    """
    values = np.empty(len(pts))
    # one thread per usable CPU, and at most one per slice
    pool = ThreadPoolExecutor(worker_count(-(-len(pts) // _SLICE), 1))
    try:
        waiting = None
        for start in range(0, len(pts), _CHUNK):
            block = slice(start, start + _CHUNK)
            handed = block, _submit_block(pool, svd, gap, pts[block], reg)
            if waiting:
                _store(values, *waiting)
            waiting = handed
        _store(values, *waiting)
    finally:  # after an error, the slices of the block handed over last are dropped
        pool.shutdown(cancel_futures=True)
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
    sizes agree to rounding.  Each block is filtered in slices of ``_SLICE``
    columns on at most one thread per usable CPU; the slices do not depend on
    the number of CPUs, so neither does any bit of the result.  A grid with
    no point within ``RADIUS_MASK`` raises :class:`ValueError`.
    """
    pts = grid.points()
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= RADIUS_MASK
    if not inside.any():
        raise ValueError(f"no point of the {grid.nx}x{grid.ny} grid lies within "
                         f"the mask radius {RADIUS_MASK}")
    matrix = gap.matrix
    if noise is not None:
        matrix = perturb_matrix(matrix, *noise)
    svd = SvdFactorization.from_matrix(matrix)
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
    by polar angle about their centroid.  When the level set has two or more
    closed loops, a :class:`SeveralLoopsWarning` gives their count.
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

    if len(loops) > 1:
        warnings.warn(f"the level set has {len(loops)} closed loops; only the largest "
                      "is kept", SeveralLoopsWarning, stacklevel=2)
    best = max(loops, key=loop_area)
    pts = np.array([coords[k] for k in best])
    center = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    return pts[np.argsort(ang)]


def fit_trig_curve(points, degree) -> BoundaryCurve:
    """Least-squares trigonometric fit of boundary points, as a ``trig`` curve.

    Each coordinate is expanded as ``sum_m a_m cos(m t) + b_m sin(m t)`` with
    ``t`` the polar angle of each point (the shape is assumed star-shaped
    about the origin) and fitted by its own least-squares solve, without a
    penalty.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (k, 2)")
    if degree < 1:
        raise ValueError(f"fit degree must be 1 or more, not {degree}")
    if len(pts) < 2 * degree + 1:
        raise ValueError(f"{len(pts)} points cannot determine degree {degree}")
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    m = np.arange(1, degree + 1)
    design = np.concatenate([np.cos(np.outer(ang, m)), np.sin(np.outer(ang, m))], axis=1)
    cos_coef = np.zeros((2, degree))
    sin_coef = np.zeros((2, degree))
    # one solve per coordinate: a two-column solve rounds differently
    for p in range(2):
        sol, *_ = np.linalg.lstsq(design, pts[:, p], rcond=None)
        cos_coef[p] = sol[:degree]
        sin_coef[p] = sol[degree:]
    fitted = BoundaryCurve.trig(cos_coef, sin_coef)
    jac = fitted.jacobian(np.linspace(0, 2 * np.pi, 256, endpoint=False))
    if jac.min() <= max(1e-14, 1e-9 * jac.max()):
        raise DegenerateFit("fitted curve Jacobian vanishes")
    return fitted
