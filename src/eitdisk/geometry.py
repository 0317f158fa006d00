"""Closed parametrized curves in the plane and 2pi-periodic Fourier analysis.

Every boundary in the package is a counterclockwise closed curve
``x(theta) = (x1(theta), x2(theta))`` on ``[0, 2pi)``.  Four families are
supported: circles, origin-centered ellipses, a fixed non-convex "cardioid"
test shape, and general trigonometric-polynomial curves (the output of the
curve-fitting step).  All four share one trigonometric form and one
evaluation path; the family picks the JSON description, and a circle's also
lets :mod:`eitdisk.bie` use its closed-form blocks.  The curve object
exposes the position, the first two parameter derivatives, the Jacobian
``|x'(theta)|``, unit normals and its JSON description.

Normal conventions
------------------
``normal(theta)`` points out of the region enclosed by the curve, the
counterclockwise convention every layer kernel uses.  On the measurement
circle this is the physical current direction; on an inclusion the outward
direction of the annular region is its negative, and the callers that need
it flip the sign themselves.

Fourier analysis
----------------
:func:`fourier_analyze` turns equally spaced real samples into the complex
coefficients ``c_n``, ``|n| <= order``, of a :class:`FourierData`, and
``coefficient(n)`` reads one; the cardioid takes its coefficients this way.
Curves and coefficient sets hold arrays, so they compare and hash by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .exceptions import DegenerateTangent, InsufficientSamples

__all__ = [
    "BoundaryCurve",
    "FourierData",
    "fourier_analyze",
]

_TANGENT_TOL = 1e-12


def _number(value, key):
    """``value`` as a float; anything but a finite JSON number raises
    :class:`ValueError` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value):
        raise ValueError(f"geometry {key!r} must be a finite number, not {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """A closed counterclockwise curve of one of the supported kinds.

    Every kind is the polynomial
    ``center + sum_m cos_coef[:, m-1] cos(m theta) + sin_coef[:, m-1] sin(m theta)``
    with ``(2, M)`` coefficient arrays, row ``p`` for coordinate ``p``.  A
    ``circle`` has ``cos_coef = [[r], [0]]`` and ``sin_coef = [[0], [r]]``, an
    ``ellipse`` ``[[a], [0]]`` and ``[[0], [b]]`` about the origin, the
    ``cardioid`` degree 40 about its own centre, and a ``trig`` curve any
    degree about the origin.  ``kind`` names the family :meth:`to_dict` writes.
    """

    kind: str
    center: tuple
    cos_coef: np.ndarray = field(repr=False)
    sin_coef: np.ndarray = field(repr=False)

    @classmethod
    def circle(cls, center=(0.0, 0.0), radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("circle", (float(center[0]), float(center[1])),
                   np.array([[radius], [0.0]], float), np.array([[0.0], [radius]], float))

    @classmethod
    def ellipse(cls, a, b):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        return cls("ellipse", (0.0, 0.0), np.array([[a], [0.0]], float),
                   np.array([[0.0], [b]], float))

    @classmethod
    def cardioid(cls):
        """The test shape ``r = (0.35 + 0.3 cos t + 0.05 sin 2t) / (1 + 0.7 cos t)``
        as its degree-40 trigonometric interpolant from 128 samples.  The
        shape is analytic, so the interpolant reproduces it to rounding."""
        t = 2.0 * np.pi * np.arange(128) / 128
        r = (0.35 + 0.3 * np.cos(t) + 0.05 * np.sin(2 * t)) / (1.0 + 0.7 * np.cos(t))
        c = np.stack([fourier_analyze(r * np.cos(t), 40).coeffs,
                      fourier_analyze(r * np.sin(t), 40).coeffs])
        return cls("cardioid", (float(c[0, 40].real), float(c[1, 40].real)),
                   2.0 * c[:, 41:].real, -2.0 * c[:, 41:].imag)

    @classmethod
    def trig(cls, cos_coef, sin_coef):
        try:
            a = np.atleast_2d(np.asarray(cos_coef, dtype=float))
            b = np.atleast_2d(np.asarray(sin_coef, dtype=float))
        except TypeError:
            raise ValueError("coefficient arrays must hold numbers") from None
        if a.shape != b.shape or a.shape[0] != 2:
            raise ValueError("coefficient arrays must both have shape (2, M)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficient arrays must be finite")
        return cls("trig", (0.0, 0.0), a, b)

    def to_dict(self) -> dict:
        """JSON geometry description: ``kind`` and that kind's parameters."""
        if self.kind == "circle":
            return {"kind": "circle", "center": [float(c) for c in self.center],
                    "radius": float(self.cos_coef[0, 0])}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "a": float(self.cos_coef[0, 0]),
                    "b": float(self.sin_coef[1, 0])}
        if self.kind == "cardioid":
            return {"kind": "cardioid"}
        return {"kind": "trig", "a": self.cos_coef.tolist(), "b": self.sin_coef.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> BoundaryCurve:
        """Inverse of :meth:`to_dict`; a circle without ``center`` is at the origin.

        A description that is not an object, an unknown kind, a missing key
        or a value of the wrong type raises :class:`ValueError`.
        """
        if not isinstance(data, dict):
            raise ValueError(f"geometry description must be a JSON object, not {data!r}")
        try:
            kind = data["kind"]
            if kind == "circle":
                center = data.get("center", [0.0, 0.0])
                if not isinstance(center, (list, tuple)) or len(center) != 2:
                    raise ValueError(f"geometry 'center' must be two numbers, not {center!r}")
                return cls.circle([_number(c, "center") for c in center],
                                  _number(data["radius"], "radius"))
            if kind == "ellipse":
                return cls.ellipse(_number(data["a"], "a"), _number(data["b"], "b"))
            if kind == "cardioid":
                return cls.cardioid()
            if kind == "trig":
                return cls.trig(data["a"], data["b"])
        except KeyError as exc:
            raise ValueError(f"geometry description has no key {exc.args[0]!r}") from None
        raise ValueError(f"unknown geometry kind {kind!r}")

    def point(self, theta):
        """Position ``x(theta)``; vectorized, returns shape ``theta.shape + (2,)``."""
        return np.add(self.center, self._trig_eval(theta, order=0))

    def velocity(self, theta):
        """First parameter derivative ``x'(theta)``."""
        return self._trig_eval(theta, order=1)

    def acceleration(self, theta):
        """Second parameter derivative ``x''(theta)``."""
        return self._trig_eval(theta, order=2)

    def _trig_eval(self, theta, order):
        m = np.arange(1, self.cos_coef.shape[1] + 1, dtype=float)
        mt = np.multiply.outer(np.asarray(theta, dtype=float), m)
        c, s = np.cos(mt), np.sin(mt)
        if order == 0:
            bc, bs = c, s
        elif order == 1:
            bc, bs = -m * s, m * c
        else:
            bc, bs = -(m**2) * c, -(m**2) * s
        return bc @ self.cos_coef.T + bs @ self.sin_coef.T

    def jacobian(self, theta):
        """Arc-length factor ``|x'(theta)|``."""
        v = self.velocity(theta)
        return np.sqrt((v**2).sum(axis=-1))

    def normal(self, theta):
        """Unit normal at ``x(theta)``, pointing out of the enclosed region."""
        v = self.velocity(theta)
        j = np.sqrt((v**2).sum(axis=-1))
        if np.any(j < _TANGENT_TOL):
            raise DegenerateTangent("curve tangent below tolerance")
        return np.stack([v[..., 1], -v[..., 0]], axis=-1) / j[..., None]

    def curvature(self, theta):
        """Signed curvature; positive for counterclockwise convex curves."""
        v = self.velocity(theta)
        a = self.acceleration(theta)
        j = np.sqrt((v**2).sum(axis=-1))
        return (v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]) / j**3

    def nodes(self, n):
        """Equally spaced parameter values ``theta_j = 2 pi j / n``."""
        return 2.0 * np.pi * np.arange(n) / n

    def validate(self, n=256):
        """Check simple-closedness and Jacobian positivity at ``n`` nodes.

        The closedness test checks that no two non-adjacent chords of the
        node polygon intersect.  Raises ``ValueError`` on failure.
        """
        t = self.nodes(n)
        if np.any(self.jacobian(t) <= _TANGENT_TOL):
            raise ValueError("curve Jacobian is not positive at sample nodes")
        p = self.point(t)
        # contiguous coordinate arrays gather faster than rows of p
        px, py = p[:, 0].copy(), p[:, 1].copy()
        dx, dy = np.roll(px, -1) - px, np.roll(py, -1) - py
        # chord pairs i < j - 1; chords 0 and n-1 are wrap-around neighbours
        i, j = np.triu_indices(n, 2)
        keep = (i > 0) | (j < n - 1)
        i, j = i[keep], j[keep]
        rx, ry = px[j] - px[i], py[j] - py[i]
        dxi, dyi, dxj, dyj = dx[i], dy[i], dx[j], dy[j]
        cross_dd = dxi * dyj - dyi * dxj
        cross_rd = rx * dyj - ry * dxj
        cross_rd2 = rx * dyi - ry * dxi
        with np.errstate(divide="ignore", invalid="ignore"):
            s = cross_rd / cross_dd
            u = -cross_rd2 / cross_dd
        hit = (np.abs(cross_dd) > 1e-14) & (s > 0) & (s < 1) & (u > 0) & (u < 1)
        if np.any(hit):
            raise ValueError("curve self-intersects at sample resolution")
        return True


@dataclass(frozen=True, eq=False)
class FourierData:
    """Complex Fourier coefficients ``c_n`` for ``|n| <= order``.

    ``coeffs[k]`` holds the coefficient of ``exp(i n theta)`` with
    ``n = k - order``, so the layout is symmetric around the constant mode.
    """

    coeffs: np.ndarray
    order: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.order + 1,):
            raise ValueError("coefficient array must have length 2*order+1")
        object.__setattr__(self, "coeffs", c)

    def coefficient(self, n):
        if abs(n) > self.order:
            return 0.0 + 0.0j
        return self.coeffs[n + self.order]


def fourier_analyze(samples, order):
    """Fourier coefficients of equally spaced samples.

    Applies the trapezoidal approximation of
    ``c_n = (1/2pi) \\int f(phi) exp(-i n phi) dphi`` which for equally
    spaced nodes is the discrete Fourier transform divided by the sample
    count.  Exact for trigonometric polynomials of degree <= order when at
    least ``2*order+1`` samples are supplied.  The samples must be real; the
    real transform makes the output conjugate-symmetric exactly.
    """
    s = np.asarray(samples)
    if np.iscomplexobj(s):
        raise ValueError("Fourier analysis takes real samples, not complex ones")
    n = s.shape[0]
    if n < 2 * order + 1:
        raise InsufficientSamples(
            f"{n} samples cannot resolve order {order}; need at least {2 * order + 1}")
    out = np.zeros(2 * order + 1, dtype=complex)
    top = min(order, n // 2)
    out[order:order + top + 1] = (np.fft.rfft(s) / n)[:top + 1]
    out[:order] = np.conj(out[order + 1:])[::-1]
    return FourierData(out, order)
