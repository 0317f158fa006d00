"""Nystrom discretization of Laplace layer potentials, and the forward solver.

All kernels derive from the free-space fundamental solution
``Phi(x, y) = -log|x - y| / (2 pi)``.  Sign conventions, verified against
the concentric-circle series in the test suite:

- Layer kernels use the *source curve's own outward* normal (the
  counterclockwise convention).  Physical currents on an inner boundary are
  obtained by negating the assembled normal derivative.
- Double layers carry the factor-2 kernel, so the trace jump is ``+-1``
  times the density: approaching the curve from the side the normal points
  into gives ``K phi + phi``, from the other side ``K phi - phi``.
- The single layer is kept at factor one; its normal derivative jumps by
  ``-+ phi/2``.

On-curve quadratures: the double-layer kernel extends continuously to the
diagonal (value ``-curvature/(4 pi)``), so trapezoidal weights are
spectrally accurate.  The single layer splits off the periodic logarithm
``log(4 sin^2((t - s)/2))`` and integrates it with the trigonometric weights
of Kress (*Linear Integral Equations*, 3rd ed., 2014); the factor depends
only on the lag of equally spaced nodes (:func:`_sin2_lags`).  The
hypersingular operator is reduced to tangential derivatives of the single
layer (Maue), whose two spectral-differentiation products are split by rows
(:func:`eitdisk.parallel.by_rows`), with the same bits on any number of
CPUs; on a circle of radius ``r`` it is ``-healthy_collocation_matrix(n) /
r`` in closed form.  Every kernel computes in place, in the operations and
order of its formula on fresh arrays, so it keeps their bits and holds at
most five matrices of its result's size.  Only a self block has a singular
diagonal; any other target on a source node raises :class:`CoincidentPoints`.

The measurement boundary is the unit circle, whose Dirichlet Green's
function ``G = Phi + H`` has the smooth image part ``H(x, y) = log(|x|^2
|y|^2 - 2 x.y + 1) / (4 pi)`` (:func:`_image`).  The forward solver
represents ``u = P[f] + S_G phi``: the voltage's harmonic extension plus a
single layer of ``G`` on the inclusion, which vanishes on the circle.  Only
the inclusion is discretized; ``P[f]`` at its nodes comes from running
powers of the node positions (:func:`_harmonic_extension`), and no kernel is
evaluated between the two curves.  One LU of the inclusion-sized matrix
serves every voltage column, guarded by LAPACK's 1-norm condition estimate
(``dgecon``) from its factors.  scipy serves only that LU, its solves and
``dgecon``, and is imported when they run, so ``import eitdisk``, ``sample``
and ``extract`` never load it.
"""

from __future__ import annotations

import logging
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dtn import DtnOperator, circulant, healthy_collocation_matrix, lag_view
from .exceptions import CoincidentPoints, SingularSystem
from .geometry import BoundaryCurve
from .parallel import by_rows
from .regularization import perturb_vector

__all__ = [
    "NystromMesh",
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
# held around the warnings filter of :func:`_factorize`:
# ``warnings.catch_warnings`` swaps the process-wide filter list on entry and
# exit, so two threads inside it at once can restore each other's list
_FILTERS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class NystromMesh:
    """Equally spaced quadrature nodes on a boundary curve: the measurement
    nodes on the unit circle, or an inclusion's.  ``normals`` are the
    curve-outward unit normals every kernel uses.
    """

    curve: BoundaryCurve
    n: int
    theta: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)
    jacobians: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    curvature: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"a mesh needs 2 or more nodes, not {self.n}")
        if self.n % 2 != 0:
            raise ValueError("node count must be even for the log quadrature")
        t = self.curve.nodes(self.n)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "points", self.curve.point(t))
        object.__setattr__(self, "jacobians", self.curve.jacobian(t))
        object.__setattr__(self, "normals", self.curve.normal(t))
        object.__setattr__(self, "curvature", self.curve.curvature(t))

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


def kress_log_weights(n):
    """Quadrature matrix for ``int_0^{2pi} log(4 sin^2((t_i - s)/2)) f(s) ds``
    on ``n`` nodes (``n`` even): the circulant of symbol ``-2 pi / |m|`` for
    ``m != 0``, the Nyquist mode included, and zero for ``m = 0``."""
    if n % 2 != 0:
        raise ValueError("log quadrature needs an even node count")
    m = np.arange(1, n // 2 + 1)
    return circulant(np.concatenate([[0.0], -2.0 * np.pi / m]), n)


def spectral_diff_matrix(n):
    """First-derivative matrix on ``n`` equally spaced periodic nodes: the odd
    Toeplitz matrix with ``0.5 (-1)^(i-j) cot((i-j) pi / n)`` off the diagonal,
    laid out by lag as :func:`eitdisk.dtn.circulant` is."""
    lag = np.arange(1, n)
    c = 0.5 * (-1.0) ** lag / np.tan(lag * np.pi / n)
    return sliding_window_view(np.concatenate([c[::-1], [0.0], -c]), n)[::-1].copy()


def _points(target):
    if isinstance(target, NystromMesh):
        return target.points
    return np.atleast_2d(np.asarray(target, dtype=float))


def _pair(source, target):
    """Target-minus-source differences ``dx``, ``dy`` and the squared distance
    ``r2``, each of shape ``(targets, sources)``.

    Raises :class:`CoincidentPoints` when a target other than ``source``
    itself lies on a source node, where every kernel is singular.
    """
    pts = _points(target)
    dx = pts[:, 0, None] - source.points[:, 0]
    dy = pts[:, 1, None] - source.points[:, 1]
    r2 = dx * dx
    r2 += dy * dy
    if target is not source and np.any(r2 == 0):
        raise CoincidentPoints("layer target coincides with a source node")
    return dx, dy, r2


def double_layer(source, target):
    """Double-layer matrix ``2 int phi(y) dPhi/dnu(y) ds_y`` at targets.

    Source-equals-target assembly fills the diagonal with the continuous
    kernel limit ``-curvature/(4 pi)``.
    """
    dx, dy, r2 = _pair(source, target)
    # (dx nu_x + dy nu_y) / r2 / (2 pi) in the buffer of dx
    ker = dx
    ker *= source.normals[:, 0]
    dy *= source.normals[:, 1]
    ker += dy
    del dy
    with np.errstate(divide="ignore", invalid="ignore"):
        ker /= r2
    del r2
    ker /= 2.0 * np.pi
    if target is source:
        np.fill_diagonal(ker, -source.curvature / (4.0 * np.pi))
    ker *= 2.0
    ker *= source.arc_weights()
    return ker


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
    pts = _points(target)
    r = np.sqrt((pts**2).sum(axis=1))
    if np.any(r == 0):
        raise CoincidentPoints("monopole modification evaluated at the origin")
    mat = double_layer(source, target)
    extra = np.log(r)[:, None] * source.arc_weights()[None, :]
    extra *= 2.0
    mat += extra
    return mat


def single_layer(source, target):
    """Single-layer matrix (factor one).

    Separated targets use plain trapezoidal quadrature; on-curve assembly
    splits the periodic logarithm and applies the trigonometric log weights.
    """
    if target is source:
        mat = _single_layer_log_split(source)
        mat *= source.jacobians
        return mat
    # -log(r2) / (4 pi) in the buffer of r2
    ker = _pair(source, target)[2]
    np.log(ker, out=ker)
    np.negative(ker, out=ker)
    ker /= 4.0 * np.pi
    ker *= source.arc_weights()
    return ker


def _sin2_lags(n):
    """``4 sin^2((t_i - t_j)/2)`` on ``n`` equally spaced nodes, ``n`` even, as
    a read-only view laid out by lag as :func:`eitdisk.dtn.circulant` is.

    The ``n/2 + 1`` values ``4 sin^2(pi k / n)`` are mirrored, so lags ``k``
    and ``n - k`` share one value: every sine's argument is at most ``pi/2``
    and carries no rounding of ``t_i - t_j``.
    """
    half = np.sin(np.arange(n // 2 + 1) * (np.pi / n))
    half *= half
    half *= 4.0
    return lag_view(np.concatenate([half, half[-2:0:-1]]))


def _single_layer_log_split(source):
    """Log-split quadrature of ``Phi(x(t_i), x(s))`` against ``ds`` (no Jacobian)."""
    smooth = _pair(source, source)[2]
    # log(r2 / (4 sin^2((t - s)/2))), the diagonal's 0 / 0 filled below
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth /= _sin2_lags(source.n)
    np.log(smooth, out=smooth)
    np.fill_diagonal(smooth, 2.0 * np.log(source.jacobians))
    # -(log weights + h smooth) / (4 pi)
    smooth *= source.weight
    smooth += kress_log_weights(source.n)
    np.negative(smooth, out=smooth)
    smooth /= 4.0 * np.pi
    return smooth


def normal_derivative(mesh, *, of="double_layer"):
    """Normal derivative of a layer potential on its own curve, at the nodes
    of its ``mesh``, along the outward normal.

    For ``single_layer`` this is the continuous part (the ``-+ phi/2`` jump
    is left to the caller), the diagonal filled by the kernel's limit
    ``-curvature/(4 pi)``; the double layers' hypersingular kernel is reduced
    by Maue's identity, or taken in closed form on a circle.  The factors
    follow the layers: two for the double layers, one for the single layer.
    """
    if of not in ("single_layer", "double_layer", "modified_double_layer"):
        raise ValueError(f"unknown layer kind {of!r}")
    fac = 1.0 if of == "single_layer" else 2.0
    if of == "single_layer":
        # -(dx nu_x + dy nu_y) / r2 / (2 pi) in the buffer of dx
        dx, dy, r2 = _pair(mesh, mesh)
        mat = dx
        mat *= mesh.normals[:, 0, None]
        dy *= mesh.normals[:, 1, None]
        mat += dy
        np.negative(mat, out=mat)
        with np.errstate(divide="ignore", invalid="ignore"):
            mat /= r2
        mat /= 2.0 * np.pi
        np.fill_diagonal(mat, -mesh.curvature / (4.0 * np.pi))
        mat *= mesh.arc_weights()
    elif mesh.curve.kind == "circle":
        # the factor-2 operator sends exp(i m t) to -|m|/r exp(i m t)
        mat = healthy_collocation_matrix(mesh.n)
        np.negative(mat, out=mat)
        mat /= mesh.curve.cos_coef[0, 0]
    else:
        mat = _hypersingular_maue(mesh)
        mat *= fac
    if of == "modified_double_layer":
        # d/dnu(x) log|x| = (x . nu(x)) / |x|^2 at the nodes
        r2 = (mesh.points**2).sum(axis=1)
        dlog = np.einsum("ik,ik->i", mesh.points, mesh.normals) / r2
        mat += fac * dlog[:, None] * mesh.arc_weights()[None, :]
    return mat


def _hypersingular_maue(source):
    """Factor-one hypersingular matrix via tangential reduction.

    ``d/dnu(x) D phi = (1/|x'|) d/dt [ int Phi(x(t), x(s)) phi'(s) ds ]``;
    both parameter derivatives use the spectral differentiation matrix and the
    inner integral the log-split quadrature.
    """
    w = _single_layer_log_split(source)
    dmat = spectral_diff_matrix(source.n)
    dw = np.empty_like(w)
    by_rows(lambda block: np.matmul(dmat[block], w, out=dw[block]), len(w))
    by_rows(lambda block: np.matmul(dw[block], dmat, out=w[block]), len(w))
    w /= source.jacobians[:, None]
    return w


def _image(source, target, kind):
    """The image part of a layer of the unit disk's Green's function, times
    the source arc weights, to be added to the free-space layer.

    ``G = Phi + H`` with ``H(x, y) = log(q) / (4 pi)``, ``q = |x|^2 |y|^2 -
    2 x.y + 1 = (1 - |x|^2)(1 - |y|^2) + |x - y|^2``, formed by the latter,
    which does not cancel.  ``kind`` is ``single_layer`` (``H``) or
    ``double_layer`` (``2 dH/dnu(y)``, that is ``b / pi``), or on a self block
    their ``nu(x)`` derivatives ``single_flux`` (``a / (2 pi)``) and
    ``double_flux`` (``((2 x.nu(x) y.nu(y) - nu(x).nu(y)) / q - 2 a b) / pi``),
    with ``a = (d.nu(x) - (1 - |y|^2) x.nu(x)) / q``, ``b = -(d.nu(y) + (1 -
    |x|^2) y.nu(y)) / q`` and ``d = x - y``.
    """
    pts, sn, w = _points(target), source.normals, source.arc_weights()
    dx, dy, q = _pair(source, target)
    rest_x = 1.0 - (pts**2).sum(axis=1)
    q += np.outer(rest_x, 1.0 - (source.points**2).sum(axis=1))
    if kind == "single_layer":
        np.log(q, out=q)
        q /= 4.0 * np.pi
        q *= w
        return q
    yn = np.einsum("ik,ik->i", source.points, sn)       # y . nu(y) at each node
    if kind != "double_layer":
        # a, where x . nu(x) is y . nu(y) and 1 - |y|^2 is 1 - |x|^2 at the node
        a = dx * sn[:, 0, None]
        a += dy * sn[:, 1, None]
        a -= np.outer(yn, rest_x)
        a /= q
        if kind == "single_flux":
            a /= 2.0 * np.pi
            a *= w
            return a
    # the numerator of -b in the buffer of dx
    b = dx
    b *= sn[:, 0]
    dy *= sn[:, 1]
    b += dy
    del dy
    b += np.outer(rest_x, yn)
    b /= q
    if kind == "double_layer":
        b /= -np.pi
        b *= w
        return b
    np.negative(b, out=b)
    a *= b
    a *= 2.0
    del b
    mat = np.outer(2.0 * yn, yn)
    mat -= sn[:, 0, None] * sn[:, 0]
    mat -= sn[:, 1, None] * sn[:, 1]
    mat /= q
    mat -= a
    mat /= np.pi
    mat *= w
    return mat


def _harmonic_extension(n, points, normals):
    """Harmonic extension ``P[f]`` at ``points`` per node value of ``f`` on
    the ``n`` measurement nodes, shape ``(len(points), n)``; with ``normals``
    not None, its derivative along them.

    ``f`` is its trigonometric interpolant, the Nyquist mode a cosine, and
    ``P`` sends ``exp(i k t)`` to ``z^k``: row ``j`` is the ``irfft`` of the
    running powers ``conj(z_j)^k``, ``k <= n/2``, or of ``conj(k z^(k-1) nu)``.
    """
    z = points[:, 0] + 1j * points[:, 1]
    powers = np.empty((n // 2 + 1, len(z)), dtype=complex)
    powers[0] = 1.0
    for k in range(1, n // 2 + 1):
        np.multiply(powers[k - 1], z, out=powers[k])
    if normals is not None:
        powers[1:] = powers[:-1] * np.arange(1, n // 2 + 1)[:, None]
        powers[1:] *= normals[:, 0] + 1j * normals[:, 1]
        powers[0] = 0.0
    np.conjugate(powers, out=powers)
    return np.fft.irfft(powers, n, axis=0).T


def _check_gamma(inner, bc, gamma):
    """The impedance at the inner nodes, or None for the grounded condition."""
    if bc == "dirichlet":
        return None
    if bc != "impedance":
        raise ValueError(f"unknown boundary condition {bc!r}")
    if gamma is None:
        raise ValueError("impedance condition needs gamma values at inner nodes")
    g = np.asarray(gamma, dtype=float)
    if g.shape != (inner.n,):
        raise ValueError("gamma must be sampled at the inner mesh nodes")
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma must be finite at every inner node")
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    return g


def _green_single_layer(inner, target):
    """``S_G`` from the inner nodes to ``target``."""
    mat = single_layer(inner, target)
    mat += _image(inner, target, "single_layer")
    return mat


def _green_adjoint(inner):
    """``K'_G - I/2``: the outward normal derivative of ``S_G`` on the inner
    nodes, from the side the normals point into."""
    mat = normal_derivative(inner, of="single_layer")
    mat += _image(inner, inner, "single_flux")
    mat -= 0.5 * np.eye(inner.n)
    return mat


def _forward_matrix(inner, g):
    """``S_G`` for the grounded condition (``g`` None), else
    ``I/2 - K'_G + g S_G``, with the impedance ``g`` at the inner nodes."""
    if g is None:
        return _green_single_layer(inner, inner)
    mat = _green_adjoint(inner)
    np.negative(mat, out=mat)
    s_g = _green_single_layer(inner, inner)
    s_g *= g[:, None]
    mat += s_g
    return mat


@dataclass(frozen=True, eq=False)
class ForwardSolution:
    """The voltage ``f`` and the density ``phi`` of the simulation ansatz
    ``u = P[f] + S_G phi``, and derived boundary data.  For a matrix of
    voltage columns the density has one column per voltage, and so has every
    derived quantity.  The solve keeps the harmonic extension ``P`` at the
    inner nodes per outer node value, which it formed for its right-hand side.
    """

    outer: NystromMesh
    inner: NystromMesh
    voltage: np.ndarray
    phi: np.ndarray
    extension: np.ndarray

    def potential(self, points):
        """Evaluate the represented potential at points strictly inside the
        unit circle, where the extension's moments stay bounded."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any((pts**2).sum(axis=1) >= 1.0):
            raise ValueError("the potential is evaluated strictly inside the unit "
                             "measurement circle")
        return (_harmonic_extension(self.outer.n, pts, None) @ self.voltage
                + _green_single_layer(self.inner, pts) @ self.phi)

    def outer_flux(self):
        """Current ``d u / d nu`` on the outer boundary (outward normal):
        ``Lambda0 f`` less the Poisson integral of the density's weights,
        whose node values are ``n/(2 pi)`` times the extension's transpose."""
        n = self.outer.n
        weighted = (self.phi.T * self.inner.arc_weights()).T
        flux = healthy_collocation_matrix(n) @ self.voltage
        flux -= (n / (2.0 * np.pi)) * (self.extension.T @ weighted)
        return flux

    def inner_trace(self):
        """Potential on the inclusion boundary."""
        trace = self.extension @ self.voltage
        trace += _green_single_layer(self.inner, self.inner) @ self.phi
        return trace

    def inner_flux(self):
        """Current on the inclusion boundary with the normal into the inclusion."""
        inner = self.inner
        flux = _harmonic_extension(self.outer.n, inner.points, inner.normals) @ self.voltage
        flux += _green_adjoint(inner) @ self.phi
        return np.negative(flux, out=flux)


def _factorize(a, what, limit):
    """LU factors of ``a`` and LAPACK's 1-norm condition estimate, to six
    significant digits.

    The estimate is good to a small factor only, and ``dgecon``'s last digits
    depend on where the heap places its own work array, so the digits beyond
    six would make the reported condition depend on call history.  Raises
    :class:`SingularSystem` when the block is not finite, is exactly
    singular, or its estimated condition exceeds ``limit``.

    Two threads must never solve against one ``(lu, piv)`` at once:
    ``lu_solve`` shifts the pivot array in place, so a solve split by rows
    (:func:`eitdisk.parallel.by_rows`) gives every block its own copy.
    """
    import scipy.linalg as la

    anorm = np.linalg.norm(a, 1)
    lu, cond = None, np.inf
    if np.isfinite(anorm):
        with _FILTERS_LOCK, warnings.catch_warnings():
            # an exactly zero pivot is reported through the estimate below
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu = la.lu_factor(a, check_finite=False)
        rcond, _ = la.lapack.dgecon(lu[0], anorm, norm="1")
        if rcond > 0:
            cond = float(f"{1.0 / rcond:.6g}")
    log.debug("%s system condition estimate %.3e", what, cond)
    if not cond <= limit:
        raise SingularSystem(f"{what} system is numerically singular", condition=cond)
    return lu, cond


def _check_outer(outer):
    """Reject an outer mesh that is not the unit measurement circle."""
    curve = outer.curve
    if curve.kind != "circle" or curve.center != (0.0, 0.0) or curve.cos_coef[0, 0] != 1.0:
        raise ValueError("the outer boundary must be the unit measurement circle")


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
    shape ``(outer.n, k)``; all columns share one factorization.  With ``u =
    P[f] + S_G phi`` the voltage holds by construction, and the density solves
    ``S_G phi = -P[f]`` (grounded inclusion) or ``(I/2 - K'_G + gamma S_G) phi
    = dP[f]/dnu - gamma P[f]`` (impedance, ``nu`` the inclusion's outward
    normal).  Raises :class:`ValueError` when ``outer`` is not the unit
    circle or the inner curve reaches it.
    """
    import scipy.linalg as la

    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != outer.n:
        raise ValueError("voltage must be sampled at the outer mesh nodes")
    _check_outer(outer)
    _check_inclusion(inner)
    g = _check_gamma(inner, bc, gamma)
    lu, _ = _factorize(_forward_matrix(inner, g), "forward", _COND_LIMIT)
    ext = _harmonic_extension(outer.n, inner.points, None)
    rhs = ext @ f
    if g is None:
        np.negative(rhs, out=rhs)
    else:
        rhs = (rhs.T * g).T
        ext_flux = _harmonic_extension(outer.n, inner.points, inner.normals)
        np.subtract(ext_flux @ f, rhs, out=rhs)
    return ForwardSolution(outer, inner, f, la.lu_solve(lu, rhs, overwrite_b=True), ext)


def trig_resample(values, n):
    """Values of the trigonometric interpolant of real node values at ``n``
    equally spaced angles ``2 pi k / n``.

    ``values`` holds one column ``(m,)`` or columns ``(m, P)`` at ``m``
    equally spaced angles.  Mode ``k`` of their transform (``fftfreq``
    order, the Nyquist mode as ``-m/2``) is added into slot ``k mod n``,
    where ``exp(i k t)`` takes the node values of ``exp(i (k mod n) t)``, and
    one inverse transform gives the interpolant's value at each new node: the
    real part of the sum of every mode at those angles.
    """
    m = len(values)
    folded = np.zeros((n, *np.shape(values)[1:]), dtype=complex)
    np.add.at(folded, np.fft.fftfreq(m, 1.0 / m).astype(int) % n,
              np.fft.fft(values, axis=0))
    return np.fft.ifft(folded, axis=0).real * (n / m)


def dtn_matrix(outer, inner, bc, gamma=None, basis="collocation",
               modes=None, flux_noise=None):
    """Simulated voltage-to-current matrix of the defective material.

    ``basis="collocation"`` returns the node-value map at the outer mesh
    nodes (columns are responses to nodal hat data).  ``basis="fourier"``
    drives the solver with ``cos/sin`` of every ``|mode|`` and returns the
    coefficient-to-coefficient matrix over ``modes`` (one-sided ``0..N`` or
    symmetric ``-N..N``), which the caller must give; the outer mesh must
    resolve the largest driven mode.  Each coefficient is the discrete
    transform of a current on the outer mesh's nodes, where it was simulated.

    ``flux_noise=(delta, seed)`` applies the multiplicative vector noise model
    to every simulated current column (the measured data) before assembly:
    at the simulation nodes, so Fourier coefficients carry its projection.
    """
    if basis == "collocation":
        lam = solve_forward(outer, inner, bc, np.eye(outer.n), gamma).outer_flux()
        if flux_noise is not None:
            lam = perturb_vector(lam, *flux_noise)
        return DtnOperator("collocation", lam)
    if basis != "fourier":
        raise ValueError(f"unknown basis {basis!r}")
    if modes is None:
        raise ValueError("the fourier basis needs a mode list")
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
    # columns 2j and 2j + 1: real and imaginary part of the current of exp(i modes[j] t)
    m = np.abs(modes)
    cur = np.stack([flux[:, m], np.sign(modes) * flux[:, top + 1 + m]], 2).reshape(outer.n, -1)
    if flux_noise is not None:
        cur = perturb_vector(cur, *flux_noise)
    # coefficient form: the transform on the simulation nodes, mode m in slot m mod outer.n
    mat = np.fft.fft(cur[:, 0::2] + 1j * cur[:, 1::2], axis=0)[modes % outer.n] / outer.n
    return DtnOperator("fourier", mat, modes)
