"""Nystrom discretization of Laplace layer potentials on closed curves.

All kernels derive from the free-space fundamental solution
``Phi(x, y) = -log|x - y| / (2 pi)``.  Sign conventions, fixed once here and
verified against the concentric-circle series in the test suite:

- Layer kernels always use the *source curve's own outward* normal (the
  counterclockwise convention), regardless of which physical boundary the
  curve plays.  Physical currents on an inner boundary are obtained by
  negating the assembled normal derivative.
- Double layers carry the factor-2 kernel by default, so the trace jump is
  ``+-1`` times the density: approaching the curve from the side the normal
  points into gives ``K phi + phi``, from the other side ``K phi - phi``.
- The single layer is kept at factor one; its normal derivative jumps by
  ``-+ phi/2``.

On-curve quadratures: the double-layer kernel extends continuously to the
diagonal (value ``-curvature/(4 pi)``), so plain trapezoidal weights are
spectrally accurate.  The single layer splits off the periodic logarithm
``log(4 sin^2((t - s)/2))`` and integrates it with the classical trigonometric
weights, which are exact on the resolvable trigonometric band.  The
hypersingular operator (normal derivative of a double layer on its own curve)
is reduced to tangential derivatives of the single layer and evaluated with
the spectral differentiation matrix.

Every dense system is LU-factorized once.  Its conditioning is guarded by
LAPACK's 1-norm estimate (``dgecon``) computed from those factors, not by a
separate singular value decomposition.  :func:`solve_forward` takes one
voltage or a matrix of voltage columns and solves them all against one
factorization.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .dtn import DtnOperator
from .exceptions import CoincidentPoints, SingularSystem
from .geometry import BoundaryCurve
from .regularization import perturb_vector

__all__ = [
    "NystromMesh",
    "fundamental_solution",
    "kress_log_weights",
    "spectral_diff_matrix",
    "double_layer",
    "modified_double_layer",
    "single_layer",
    "normal_derivative",
    "ForwardSolution",
    "solve_forward",
    "trig_resample",
    "dtn_matrix",
]

log = logging.getLogger(__name__)

_COND_LIMIT = 1e14


@dataclass(frozen=True)
class NystromMesh:
    """Equally spaced quadrature nodes on a boundary curve.

    ``normals`` are the curve-outward unit normals used by every kernel, also
    on an inclusion, where the annular region's outward normal is their
    negative.  ``role`` labels the curve as the outer measurement boundary or
    an inner inclusion boundary.
    """

    curve: BoundaryCurve
    n: int
    role: str = "outer"            # "outer" | "inner"
    theta: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)
    jacobians: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    curvature: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n % 2 != 0:
            raise ValueError("node count must be even for the log quadrature")
        if self.role not in ("outer", "inner"):
            raise ValueError(f"unknown mesh role {self.role!r}")
        t = self.curve.nodes(self.n)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "points", self.curve.point(t))
        object.__setattr__(self, "jacobians", self.curve.jacobian(t))
        object.__setattr__(self, "normals", self.curve.normal(t))
        object.__setattr__(self, "curvature", self.curve.curvature(t))
        if np.any(self.jacobians <= 0):
            raise ValueError("mesh Jacobian must be positive at every node")

    @property
    def weight(self):
        return 2.0 * np.pi / self.n

    def arc_weights(self):
        """Quadrature weights for integrals against arc length."""
        return self.jacobians * self.weight

    def encloses_origin(self):
        v = self.points
        ang = np.arctan2(v[:, 1], v[:, 0])
        winding = np.round(np.sum(np.angle(np.exp(1j * (np.roll(ang, -1) - ang)))) / (2 * np.pi))
        return int(winding) == 1


def fundamental_solution(x, y):
    """Free-space kernel ``-log|x-y|/(2 pi)``; raises on coincident points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.sqrt(((x - y) ** 2).sum(axis=-1))
    if np.any(r == 0):
        raise CoincidentPoints("fundamental solution evaluated at x == y")
    return -np.log(r) / (2.0 * np.pi)


def kress_log_weights(n):
    """Quadrature matrix for ``int_0^{2pi} log(4 sin^2((t_i - s)/2)) f(s) ds``.

    Exact for trigonometric polynomials on the band resolvable by ``n``
    equally spaced nodes (``n`` even).
    """
    if n % 2 != 0:
        raise ValueError("log quadrature needs an even node count")
    k = np.arange(n)
    m = np.arange(1, n // 2)
    ang = np.outer(2.0 * np.pi * k / n, m)
    row = -(4.0 * np.pi / n) * (np.cos(ang) / m).sum(axis=1) \
        - (4.0 * np.pi / n**2) * np.cos(np.pi * k)
    return la.toeplitz(row)


def spectral_diff_matrix(n):
    """First-derivative matrix on ``n`` equally spaced periodic nodes."""
    d = np.zeros((n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off = i != j
    d[off] = 0.5 * (-1.0) ** (i[off] - j[off]) / np.tan((i[off] - j[off]) * np.pi / n)
    return d


def _target_geometry(target):
    if isinstance(target, NystromMesh):
        return target.points, target
    return np.atleast_2d(np.asarray(target, dtype=float)), None


def double_layer(source, target):
    """Double-layer matrix ``2 int phi(y) dPhi/dnu(y) ds_y`` at targets.

    Source-equals-target assembly fills the diagonal with the continuous
    kernel limit ``-curvature/(4 pi)``.
    """
    pts, tmesh = _target_geometry(target)
    d = pts[:, None, :] - source.points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    num = np.einsum("ijk,jk->ij", d, source.normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = num / r2 / (2.0 * np.pi)
    if tmesh is source:
        idx = np.arange(source.n)
        ker[idx, idx] = -source.curvature / (4.0 * np.pi)
    return 2.0 * ker * source.arc_weights()[None, :]


def modified_double_layer(source, target):
    """Double layer plus a rank-one source-monopole term.

    The plain double layer over a closed curve annihilates constants from the
    outside, so the trace operator ``I + K`` is singular.  The monopole term
    ``2 log|x| * int psi ds`` (the two-dimensional point source at the
    origin) restores invertibility: it vanishes identically on the unit
    measurement circle and carries the net flux of the represented potential
    through the source curve.  The source curve must enclose the origin.
    """
    if not source.encloses_origin():
        raise ValueError("modified layer requires a source curve enclosing the origin")
    pts, _ = _target_geometry(target)
    r = np.sqrt((pts**2).sum(axis=1))
    if np.any(r == 0):
        raise CoincidentPoints("monopole modification evaluated at the origin")
    extra = np.log(r)[:, None] * source.arc_weights()[None, :]
    return double_layer(source, target) + 2.0 * extra


def single_layer(source, target):
    """Single-layer matrix (factor one).

    Separated targets use plain trapezoidal quadrature; on-curve assembly
    splits the periodic logarithm and applies the trigonometric log weights.
    """
    pts, tmesh = _target_geometry(target)
    if tmesh is not source:
        d = pts[:, None, :] - source.points[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        if np.any(r2 == 0):
            raise CoincidentPoints("single layer target coincides with a source node")
        return -np.log(r2) / (4.0 * np.pi) * source.arc_weights()[None, :]
    return _single_layer_log_split(source) * source.jacobians[None, :]


def _single_layer_log_split(source):
    """Log-split quadrature of ``Phi(x(t_i), x(s))`` against ``ds`` (no Jacobian)."""
    n = source.n
    t = source.theta
    d = source.points[:, None, :] - source.points[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    s2 = 4.0 * np.sin((t[:, None] - t[None, :]) / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = np.log(r2 / s2)
    idx = np.arange(n)
    smooth[idx, idx] = 2.0 * np.log(source.jacobians)
    return -(kress_log_weights(n) + source.weight * smooth) / (4.0 * np.pi)


def normal_derivative(source, target, of="double_layer"):
    """Normal derivative of a layer potential at target-mesh nodes.

    The derivative direction is the *target curve's outward* normal.  For
    separated curves the kernels are differentiated directly.  Same-curve
    requests are supported for ``single_layer`` (continuous part only, the
    ``-+ phi/2`` jump is left to the caller) and for the double layers, where
    the hypersingular kernel is reduced to tangential derivatives of the
    single layer (Maue's identity).  The factors follow the layers: two for
    the double layers, one for the single layer.
    """
    fac = 1.0 if of == "single_layer" else 2.0
    if not isinstance(target, NystromMesh):
        raise TypeError("normal derivatives are assembled on a target mesh")
    same = target is source
    if of == "single_layer":
        d = target.points[:, None, :] - source.points[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        num = np.einsum("ijk,ik->ij", d, target.normals)
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = -num / r2 / (2.0 * np.pi)
        if same:
            idx = np.arange(source.n)
            ker[idx, idx] = -source.curvature / (4.0 * np.pi)
        return fac * ker * source.arc_weights()[None, :]

    if of not in ("double_layer", "modified_double_layer"):
        raise ValueError(f"unknown layer kind {of!r}")

    if same:
        mat = fac * _hypersingular_maue(source)
    else:
        d = target.points[:, None, :] - source.points[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        nn = np.einsum("ik,jk->ij", target.normals, source.normals)
        dnx = np.einsum("ijk,ik->ij", d, target.normals)
        dny = np.einsum("ijk,jk->ij", d, source.normals)
        ker = (nn / r2 - 2.0 * dnx * dny / r2**2) / (2.0 * np.pi)
        mat = fac * ker * source.arc_weights()[None, :]
    if of == "modified_double_layer":
        # d/dnu(x) log|x| = (x . nu(x)) / |x|^2 at the target nodes
        r2 = (target.points**2).sum(axis=1)
        dlog = np.einsum("ik,ik->i", target.points, target.normals) / r2
        mat = mat + fac * dlog[:, None] * source.arc_weights()[None, :]
    return mat


def _hypersingular_maue(source):
    """Factor-one hypersingular matrix via tangential reduction.

    ``d/dnu(x) D phi = (1/|x'|) d/dt [ int Phi(x(t), x(s)) phi'(s) ds ]``;
    both parameter derivatives use the spectral differentiation matrix and the
    inner integral the log-split quadrature.
    """
    dmat = spectral_diff_matrix(source.n)
    w = _single_layer_log_split(source)
    return (dmat @ w @ dmat) / source.jacobians[:, None]


@dataclass(frozen=True)
class ForwardSolution:
    """Densities of the simulation ansatz and derived boundary data.

    The potential is represented as a factor-2 double layer on the outer
    boundary plus a factor-1 single layer on the inclusion boundary.  For a
    matrix of voltage columns the densities are matrices with one column per
    voltage, and so is every derived quantity.
    """

    outer: NystromMesh
    inner: NystromMesh
    phi: np.ndarray
    psi: np.ndarray

    def potential(self, points):
        """Evaluate the represented potential at interior points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dm = double_layer(self.outer, pts)
        si = single_layer(self.inner, pts)
        return dm @ self.phi + si @ self.psi

    def outer_flux(self):
        """Current ``d u / d nu`` on the outer boundary (outward normal)."""
        tmm = normal_derivative(self.outer, self.outer, of="double_layer")
        kim = normal_derivative(self.inner, self.outer, of="single_layer")
        return tmm @ self.phi + kim @ self.psi

    def inner_trace(self):
        """Potential on the inclusion boundary."""
        kmi = double_layer(self.outer, self.inner)
        sii = single_layer(self.inner, self.inner)
        return kmi @ self.phi + sii @ self.psi

    def inner_flux(self):
        """Current on the inclusion boundary with the normal into the inclusion."""
        tmi = normal_derivative(self.outer, self.inner, of="double_layer")
        kpii = normal_derivative(self.inner, self.inner, of="single_layer")
        half = 0.5 * np.eye(self.inner.n)
        return -(tmi @ self.phi + (kpii - half) @ self.psi)


def _forward_blocks(outer, inner, bc, gamma):
    n_m, n_i = outer.n, inner.n
    kmm = double_layer(outer, outer)
    sim = single_layer(inner, outer)
    a11 = kmm - np.eye(n_m)
    if bc == "dirichlet":
        a21 = double_layer(outer, inner)
        a22 = single_layer(inner, inner)
    elif bc == "impedance":
        if gamma is None:
            raise ValueError("impedance condition needs gamma values at inner nodes")
        g = np.asarray(gamma, dtype=float)
        if g.shape != (n_i,):
            raise ValueError("gamma must be sampled at the inner mesh nodes")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite at every inner node")
        if np.any(g < 0):
            raise ValueError("gamma must be nonnegative")
        kmi = double_layer(outer, inner)
        sii = single_layer(inner, inner)
        tmi = normal_derivative(outer, inner, of="double_layer")
        kpii = normal_derivative(inner, inner, of="single_layer")
        a21 = -tmi + g[:, None] * kmi
        a22 = -kpii + 0.5 * np.eye(n_i) + g[:, None] * sii
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return np.block([[a11, sim], [a21, a22]])


def _factorize(a, what, limit):
    """LU factors of ``a`` and LAPACK's 1-norm condition estimate.

    Raises :class:`SingularSystem` when the block is not finite, is exactly
    singular, or its estimated condition exceeds ``limit``.
    """
    anorm = np.linalg.norm(a, 1)
    lu, cond = None, np.inf
    if np.isfinite(anorm):
        with warnings.catch_warnings():
            # an exactly zero pivot is reported through the estimate below
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu = la.lu_factor(a, check_finite=False)
        rcond, _ = la.lapack.dgecon(lu[0], anorm, norm="1")
        if rcond > 0:
            cond = 1.0 / rcond
    log.debug("%s system condition estimate %.3e", what, cond)
    if not cond <= limit:
        raise SingularSystem(f"{what} system is numerically singular", condition=cond)
    return lu, cond


def _check_inclusion(inner):
    """Reject an inner curve that reaches the unit measurement circle (256 samples)."""
    pts = inner.curve.point(inner.curve.nodes(256))
    top = float(np.hypot(pts[:, 0], pts[:, 1]).max())
    if top >= 1.0:
        raise ValueError(
            f"inclusion reaches radius {top:.3f}; it must stay strictly "
            "inside the unit measurement circle")


def solve_forward(outer, inner, bc, f, gamma=None):
    """Solve the simulation ansatz for outer voltages ``f`` (node values).

    ``f`` is one voltage of shape ``(outer.n,)`` or ``k`` voltage columns of
    shape ``(outer.n, k)``; all columns share one factorization.  Imposes the
    voltage on the outer boundary and either a grounded or an impedance
    condition (normal into the inclusion) on the inner boundary.  Returns a
    :class:`ForwardSolution`; raises :class:`ValueError` when the inner curve
    reaches the unit circle.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != outer.n:
        raise ValueError("voltage must be sampled at the outer mesh nodes")
    _check_inclusion(inner)
    a = _forward_blocks(outer, inner, bc, gamma)
    lu, _ = _factorize(a, "forward", _COND_LIMIT)
    sol = la.lu_solve(lu, np.concatenate([f, np.zeros((inner.n,) + f.shape[1:])]))
    return ForwardSolution(outer, inner, sol[:outer.n], sol[outer.n:])


def trig_resample(values, new_theta):
    """Evaluate the trigonometric interpolant of node values at new angles.

    ``values`` holds one column ``(n,)`` or columns ``(n, P)`` of node values.
    """
    n = len(values)
    c = np.fft.fft(values, axis=0) / n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    return np.exp(1j * np.outer(new_theta, m)) @ c


def dtn_matrix(outer, inner, bc, gamma=None, basis="collocation",
               modes=None, flux_noise=None):
    """Simulated voltage-to-current matrix of the defective material.

    ``basis="collocation"`` returns the node-value map at the outer mesh
    nodes (columns are responses to nodal hat data).  ``basis="fourier"``
    drives the solver with ``cos/sin`` of every ``|mode|`` and returns the
    coefficient-to-coefficient matrix over ``modes`` (one-sided ``0..N`` or
    symmetric ``-N..N``); the outer mesh must resolve the largest driven mode.

    ``flux_noise=(delta, seed)`` applies the multiplicative vector noise model
    to every simulated current column (the measured data) before assembly.
    """
    if basis == "collocation":
        lam = solve_forward(outer, inner, bc, np.eye(outer.n), gamma).outer_flux()
        if flux_noise is not None:
            delta, seed = flux_noise
            for j in range(outer.n):
                lam[:, j] = perturb_vector(lam[:, j], delta, (seed, j))
        return DtnOperator("collocation", lam)
    if basis != "fourier":
        raise ValueError(f"unknown basis {basis!r}")
    if modes is None:
        modes = np.arange(0, 20)
    modes = np.asarray(modes, dtype=int)
    top = int(np.abs(modes).max())
    if outer.n < 2 * top + 2:
        raise ValueError(
            f"{outer.n} simulation nodes cannot resolve mode {top}; "
            f"need at least {2 * top + 2}")
    orders = np.arange(top + 1)
    angles = np.outer(outer.theta, orders)
    flux = solve_forward(outer, inner, bc, np.hstack([np.cos(angles), np.sin(angles)]),
                         gamma).outer_flux()
    flux_cos, flux_sin = flux[:, :top + 1], flux[:, top + 1:]
    n_eval = len(modes)
    theta_eval = 2.0 * np.pi * np.arange(n_eval) / n_eval
    mat = np.zeros((n_eval, n_eval), dtype=complex)
    for j, m in enumerate(modes):
        re = flux_cos[:, abs(m)].copy()
        im = np.sign(m) * flux_sin[:, abs(m)]
        if flux_noise is not None:
            delta, seed = flux_noise
            re = perturb_vector(re, delta, (seed, 2 * j))
            im = perturb_vector(im, delta, (seed, 2 * j + 1))
        vals = trig_resample(re, theta_eval) + 1j * trig_resample(im, theta_eval)
        # coefficient form: discrete transform of the node values
        coef = np.exp(-1j * np.outer(modes, theta_eval)) @ vals / n_eval
        mat[:, j] = coef
    return DtnOperator("fourier", mat, modes)
