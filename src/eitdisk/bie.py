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
weights, which are exact on the resolvable trigonometric band; the factor
``4 sin^2((t_i - t_j)/2)`` depends only on the lag ``i - j`` of equally
spaced nodes.  The
hypersingular operator (normal derivative of a double layer on its own curve)
is reduced to tangential derivatives of the single layer and evaluated with
the spectral differentiation matrix.  On a circle of radius ``r`` both
self-blocks have closed forms (Kress, *Linear Integral Equations*, 3rd ed.,
2014): the double layer is ``-J/n``, with ``J`` the all-ones matrix, and the
hypersingular block is ``-healthy_collocation_matrix(n) / r``, which
:func:`normal_derivative` returns instead of the tangential reduction.  Every
kernel reads its pair geometry, the target-minus-source ``dx``, ``dy`` and
``r2`` as ``(targets, sources)`` arrays, from one helper, ``_pair``.

Every kernel computes in place: each step writes into the buffer of an
operand that is not read again (augmented assignment, ufuncs with ``out=``),
and each intermediate is dropped after its last reader, so a kernel holds at
most five matrices of its result's size, the result included.  The steps are
the operations of the kernel's formula on fresh arrays, in the same order on
the same operands, so every entry keeps its bits; ``np.log`` and ``np.sin``
run on C-contiguous arrays only, as numpy's SIMD and strided loops for them
may round differently.  That includes the log split's sines, taken on the
contiguous vector of its ``n/2 + 1`` lags (:func:`_sin2_lags`), not on each
of the ``n^2`` entries.  Only a self block (``target is source``) has a
singular diagonal, which it fills with the kernel's limit; any other target
that lies on a source node raises :class:`CoincidentPoints`.

The outer boundary of every solve is the unit measurement circle.  Its trace
block ``I - K_mm = I + J/n`` has the inverse ``P = I - J/(2n)``, applied as a
column-sum correction, so the outer density is eliminated and only the
inclusion-sized Schur complement is LU-factorized, once per solve.  Its
conditioning is guarded by LAPACK's 1-norm estimate (``dgecon``) of that
Schur complement, computed from its factors, not by a separate singular value
decomposition.  :func:`solve_forward` takes one voltage or a matrix of
voltage columns and solves them all against one factorization.

The dense products of a solve, ``a21 P sim`` in the forward blocks and the
two spectral-differentiation products of the Maue block, are split by rows
(:func:`eitdisk.parallel.by_rows`): contiguous blocks of at least
``_MIN_ROWS`` rows, one per usable CPU, the first on the calling thread and
the rest on a pool.  Each block is the same BLAS call on the same rows,
written into its rows of a buffer the calling thread allocated, so every
entry keeps its bits on any number of CPUs.  Steps of fewer than twice
``_MIN_ROWS`` rows, every README and fine-grid product among them, start no
thread.  A solve split this way gives each block its own copy of the LU
pivot array, made on the calling thread (see :func:`_factorize`).

scipy serves only that LU, its solves and ``dgecon``.  :func:`_factorize`,
:func:`solve_forward` and :func:`eitdisk.completion.assemble_completion` import
it when they run, so ``import eitdisk``, ``sample`` and ``extract`` never load it.
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
from .parallel import matmul_by_rows
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
# target angles per block of :func:`trig_resample`
_RESAMPLE_ROWS = 64
# held around the warnings filter of :func:`_factorize`:
# ``warnings.catch_warnings`` swaps the process-wide filter list on entry and
# exit, so two threads inside it at once can restore each other's list
_FILTERS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class NystromMesh:
    """Equally spaced quadrature nodes on a boundary curve.

    The same mesh type serves the outer measurement circle and an inclusion;
    which one it is follows from where the caller passes it.  ``normals`` are
    the curve-outward unit normals used by every kernel, also on an
    inclusion, where the annular region's outward normal is their negative.
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


def normal_derivative(source, target, of="double_layer"):
    """Normal derivative of a layer potential at target-mesh nodes.

    The derivative direction is the *target curve's outward* normal.  For
    separated curves the kernels are differentiated directly.  Same-curve
    requests are supported for ``single_layer`` (continuous part only, the
    ``-+ phi/2`` jump is left to the caller) and for the double layers, where
    the hypersingular kernel is reduced to tangential derivatives of the
    single layer (Maue's identity), or taken in closed form on a circle.  The
    factors follow the layers: two for the double layers, one for the single
    layer.
    """
    if of not in ("single_layer", "double_layer", "modified_double_layer"):
        raise ValueError(f"unknown layer kind {of!r}")
    if not isinstance(target, NystromMesh):
        raise TypeError("normal derivatives are assembled on a target mesh")
    fac = 1.0 if of == "single_layer" else 2.0
    same = target is source
    if same and of != "single_layer":
        if source.curve.kind == "circle":
            # the factor-2 operator sends exp(i m t) to -|m|/r exp(i m t)
            mat = healthy_collocation_matrix(source.n)
            np.negative(mat, out=mat)
            mat /= source.curve.cos_coef[0, 0]
        else:
            mat = _hypersingular_maue(source)
            mat *= fac
    else:
        dx, dy, r2 = _pair(source, target)
        tn, sn = target.normals, source.normals
        if of == "single_layer":
            # -(dx t_x + dy t_y) / r2 / (2 pi) in the buffer of dx
            mat = dx
            mat *= tn[:, 0, None]
            dy *= tn[:, 1, None]
            mat += dy
            del dy
            np.negative(mat, out=mat)
            with np.errstate(divide="ignore", invalid="ignore"):
                mat /= r2
            del r2
            mat /= 2.0 * np.pi
            if same:
                np.fill_diagonal(mat, -source.curvature / (4.0 * np.pi))
        else:
            # dnx = dx t_x + dy t_y, and dny = dx s_x + dy s_y in the buffer of dx
            dnx = dx * tn[:, 0, None]
            dny = dy * sn[:, 1]
            dy *= tn[:, 1, None]
            dnx += dy
            del dy
            dx *= sn[:, 0]
            dx += dny
            dny = dx
            del dx
            # (nn / r2 - 2 dnx dny / r2^2) / (2 pi), nn = t . s
            dnx *= 2.0
            dnx *= dny
            del dny
            mat = tn[:, 0, None] * sn[:, 0]
            mat += tn[:, 1, None] * sn[:, 1]
            mat /= r2
            r2 **= 2
            dnx /= r2
            del r2
            mat -= dnx
            del dnx
            mat /= 2.0 * np.pi
        mat *= fac
        mat *= source.arc_weights()
    if of == "modified_double_layer":
        # d/dnu(x) log|x| = (x . nu(x)) / |x|^2 at the target nodes
        r2 = (target.points**2).sum(axis=1)
        dlog = np.einsum("ik,ik->i", target.points, target.normals) / r2
        mat += fac * dlog[:, None] * source.arc_weights()[None, :]
    return mat


def _hypersingular_maue(source):
    """Factor-one hypersingular matrix via tangential reduction.

    ``d/dnu(x) D phi = (1/|x'|) d/dt [ int Phi(x(t), x(s)) phi'(s) ds ]``;
    both parameter derivatives use the spectral differentiation matrix and the
    inner integral the log-split quadrature.
    """
    w = _single_layer_log_split(source)
    dmat = spectral_diff_matrix(source.n)
    dw = matmul_by_rows(dmat, w, np.empty_like(w))
    matmul_by_rows(dw, dmat, w)
    w /= source.jacobians[:, None]
    return w


@dataclass(frozen=True, eq=False)
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
        flux = normal_derivative(self.outer, self.outer, of="double_layer") @ self.phi
        flux += normal_derivative(self.inner, self.outer, of="single_layer") @ self.psi
        return flux

    def inner_trace(self):
        """Potential on the inclusion boundary."""
        trace = double_layer(self.outer, self.inner) @ self.phi
        trace += single_layer(self.inner, self.inner) @ self.psi
        return trace

    def inner_flux(self):
        """Current on the inclusion boundary with the normal into the inclusion."""
        flux = normal_derivative(self.outer, self.inner, of="double_layer") @ self.phi
        kpii = normal_derivative(self.inner, self.inner, of="single_layer")
        kpii -= 0.5 * np.eye(self.inner.n)
        flux += kpii @ self.psi
        return np.negative(flux, out=flux)


def _outer_inverse(x):
    """``P x`` with ``P = (I + J/n)^-1 = I - J/(2n)``, the inverse of the unit
    circle's trace block ``I - K_mm``, for the ``n`` rows of ``x``."""
    return x - x.sum(axis=0) / (2 * len(x))


def _forward_blocks(outer, inner, bc, gamma):
    """``sim``, ``a21`` and the Schur complement ``a22 + a21 P sim``.

    The forward block is ``[[K_mm - I, sim], [a21, a22]]``, and
    ``(K_mm - I)^-1 = -P`` on the unit circle.
    """
    n_i = inner.n
    if bc == "impedance":
        if gamma is None:
            raise ValueError("impedance condition needs gamma values at inner nodes")
        g = np.asarray(gamma, dtype=float)
        if g.shape != (n_i,):
            raise ValueError("gamma must be sampled at the inner mesh nodes")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite at every inner node")
        if np.any(g < 0):
            raise ValueError("gamma must be nonnegative")
    elif bc != "dirichlet":
        raise ValueError(f"unknown boundary condition {bc!r}")
    if bc == "impedance":
        # -T_mi + g K_mi and (-K'_ii + I/2) + g S_ii, the largest kernel first
        a21 = normal_derivative(outer, inner, of="double_layer")
        np.negative(a21, out=a21)
        a21 += g[:, None] * double_layer(outer, inner)
        a22 = normal_derivative(inner, inner, of="single_layer")
        np.negative(a22, out=a22)
        a22 += 0.5 * np.eye(n_i)    # the whole identity: -0.0 + 0.0 is +0.0
        a22 += g[:, None] * single_layer(inner, inner)
    else:
        # the grounded condition's blocks
        a21 = double_layer(outer, inner)
        a22 = single_layer(inner, inner)
    sim = single_layer(inner, outer)
    a22 += matmul_by_rows(a21, _outer_inverse(sim), np.empty_like(a22))
    return sim, a21, a22


def _factorize(a, what, limit):
    """LU factors of ``a`` and LAPACK's 1-norm condition estimate, to six
    significant digits.

    The estimate is good to a small factor only, and ``dgecon``'s last digits
    depend on where the heap places its own work array, so the digits beyond
    six would make the reported condition depend on call history.  Raises
    :class:`SingularSystem` when the block is not finite, is exactly
    singular, or its estimated condition exceeds ``limit``.

    Two threads must never solve against one ``(lu, piv)`` at the same time:
    ``lu_solve`` shifts the pivot array in place while it runs.  A solve
    split by rows (:func:`eitdisk.parallel.by_rows`, one block per usable
    CPU, each of at least ``_MIN_ROWS`` rows, so fewer than twice that many
    rows stay on the calling thread) therefore gives every block a copy of
    ``piv``, made on the calling thread before the block is handed over.
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
    shape ``(outer.n, k)``; all columns share one factorization.  Imposes the
    voltage on the outer boundary and either a grounded or an impedance
    condition (normal into the inclusion) on the inner boundary.  The outer
    density is eliminated: ``psi = S^-1 a21 P f`` with the Schur complement
    ``S = a22 + a21 P sim``, then ``phi = -P (f - sim psi)``.  Returns a
    :class:`ForwardSolution`; raises :class:`ValueError` when ``outer`` is not
    the unit circle or the inner curve reaches it.
    """
    import scipy.linalg as la

    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != outer.n:
        raise ValueError("voltage must be sampled at the outer mesh nodes")
    _check_outer(outer)
    _check_inclusion(inner)
    sim, a21, schur = _forward_blocks(outer, inner, bc, gamma)
    lu, _ = _factorize(schur, "forward", _COND_LIMIT)
    psi = la.lu_solve(lu, a21 @ _outer_inverse(f))
    return ForwardSolution(outer, inner, -_outer_inverse(f - sim @ psi), psi)


def trig_resample(values, new_theta):
    """Evaluate the trigonometric interpolant of node values at new angles.

    ``values`` holds one column ``(n,)`` or columns ``(n, P)`` of node values.
    The angles are taken in blocks of ``_RESAMPLE_ROWS``, each the same
    ``exp`` and product on its own rows, so only one block's ``exp`` matrix
    is alive at a time.
    """
    n = len(values)
    c = np.fft.fft(values, axis=0) / n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    out = np.empty((len(new_theta), *c.shape[1:]), dtype=complex)
    for a in range(0, len(new_theta), _RESAMPLE_ROWS):
        rows = slice(a, a + _RESAMPLE_ROWS)
        np.matmul(np.exp(1j * np.outer(new_theta[rows], m)), c, out=out[rows])
    return out


def dtn_matrix(outer, inner, bc, gamma=None, basis="collocation",
               modes=None, flux_noise=None):
    """Simulated voltage-to-current matrix of the defective material.

    ``basis="collocation"`` returns the node-value map at the outer mesh
    nodes (columns are responses to nodal hat data).  ``basis="fourier"``
    drives the solver with ``cos/sin`` of every ``|mode|`` and returns the
    coefficient-to-coefficient matrix over ``modes`` (one-sided ``0..N`` or
    symmetric ``-N..N``), which the caller must give; the outer mesh must
    resolve the largest driven mode.

    ``flux_noise=(delta, seed)`` applies the multiplicative vector noise model
    to every simulated current column (the measured data) before assembly.
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
    n_eval = len(modes)
    vals = trig_resample(cur[:, 0::2] + 1j * cur[:, 1::2],
                         2.0 * np.pi * np.arange(n_eval) / n_eval)
    # coefficient form: discrete transform of the node values, mode m in slot m mod n_eval
    mat = np.fft.fft(vals, axis=0)[modes % n_eval] / n_eval
    return DtnOperator("fourier", mat, modes)
