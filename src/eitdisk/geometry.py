"""Closed parametrized curves in the plane and 2pi-periodic Fourier utilities.

Every boundary in the package is a counterclockwise closed curve
``x(theta) = (x1(theta), x2(theta))`` on ``[0, 2pi)``.  Four families are
supported: circles, origin-centered ellipses, a fixed rational-trigonometric
"cardioid" test shape, and general trigonometric-polynomial curves (the output
of the curve-fitting step).  The curve object exposes the position, the first
two parameter derivatives, the Jacobian ``|x'(theta)|`` and unit normals.

Normal conventions
------------------
``normal(theta)`` points out of the region enclosed by the curve, the
counterclockwise convention every layer kernel uses.  On the measurement
circle this is the physical current direction; on an inclusion the outward
direction of the annular region is its negative, and the callers that need
it flip the sign themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateTangent, InsufficientSamples

__all__ = [
    "BoundaryCurve",
    "FourierData",
    "fourier_analyze",
    "fourier_eval",
]

_TANGENT_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryCurve:
    """A closed counterclockwise curve of one of the supported kinds.

    Parameters are stored per kind:

    - ``circle``: ``params = (cx, cy, radius)``
    - ``ellipse``: ``params = (a, b)`` semi-axes, centered at the origin
    - ``cardioid``: no parameters (the fixed test shape)
    - ``trig``: ``cos_coef``/``sin_coef`` with shape ``(2, M)``, row ``p``
      holding the degree-``m`` coefficients of coordinate ``p``
    """

    kind: str
    params: tuple = ()
    cos_coef: np.ndarray | None = field(default=None, repr=False)
    sin_coef: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def circle(cls, center=(0.0, 0.0), radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("circle", (float(center[0]), float(center[1]), float(radius)))

    @classmethod
    def ellipse(cls, a, b):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        return cls("ellipse", (float(a), float(b)))

    @classmethod
    def cardioid(cls):
        return cls("cardioid")

    @classmethod
    def trig(cls, cos_coef, sin_coef):
        a = np.atleast_2d(np.asarray(cos_coef, dtype=float))
        b = np.atleast_2d(np.asarray(sin_coef, dtype=float))
        if a.shape != b.shape or a.shape[0] != 2:
            raise ValueError("coefficient arrays must both have shape (2, M)")
        return cls("trig", (), a, b)

    # -- radial profile of the cardioid test shape ---------------------------
    @staticmethod
    def _cardioid_radius(theta):
        p = 0.35 + 0.3 * np.cos(theta) + 0.05 * np.sin(2 * theta)
        q = 1.0 + 0.7 * np.cos(theta)
        pd = -0.3 * np.sin(theta) + 0.1 * np.cos(2 * theta)
        qd = -0.7 * np.sin(theta)
        pdd = -0.3 * np.cos(theta) - 0.2 * np.sin(2 * theta)
        qdd = -0.7 * np.cos(theta)
        r = p / q
        rd = (pd * q - p * qd) / q**2
        rdd = (pdd * q - p * qdd) / q**2 - 2 * qd * rd / q
        return r, rd, rdd

    def point(self, theta):
        """Position ``x(theta)``; vectorized, returns shape ``theta.shape + (2,)``."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "circle":
            cx, cy, r = self.params
            return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params
            return np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1)
        if self.kind == "cardioid":
            r, _, _ = self._cardioid_radius(theta)
            return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        return self._trig_eval(theta, order=0)

    def velocity(self, theta):
        """First parameter derivative ``x'(theta)``."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "circle":
            _, _, r = self.params
            return np.stack([-r * np.sin(theta), r * np.cos(theta)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params
            return np.stack([-a * np.sin(theta), b * np.cos(theta)], axis=-1)
        if self.kind == "cardioid":
            r, rd, _ = self._cardioid_radius(theta)
            return np.stack(
                [rd * np.cos(theta) - r * np.sin(theta),
                 rd * np.sin(theta) + r * np.cos(theta)], axis=-1)
        return self._trig_eval(theta, order=1)

    def acceleration(self, theta):
        """Second parameter derivative ``x''(theta)``."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "circle":
            _, _, r = self.params
            return np.stack([-r * np.cos(theta), -r * np.sin(theta)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params
            return np.stack([-a * np.cos(theta), -b * np.sin(theta)], axis=-1)
        if self.kind == "cardioid":
            r, rd, rdd = self._cardioid_radius(theta)
            return np.stack(
                [(rdd - r) * np.cos(theta) - 2 * rd * np.sin(theta),
                 (rdd - r) * np.sin(theta) + 2 * rd * np.cos(theta)], axis=-1)
        return self._trig_eval(theta, order=2)

    def _trig_eval(self, theta, order):
        m = np.arange(1, self.cos_coef.shape[1] + 1, dtype=float)
        mt = np.multiply.outer(theta, m)
        c, s = np.cos(mt), np.sin(mt)
        if order == 0:
            bc, bs = c, s
        elif order == 1:
            bc, bs = -m * s, m * c
        else:
            bc, bs = -(m**2) * c, -(m**2) * s
        out = bc @ self.cos_coef.T + bs @ self.sin_coef.T
        return out

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
        q = np.roll(p, -1, axis=0)
        d = q - p
        for i in range(n):
            # candidate chords j > i+1, excluding the wrap-around neighbor
            j = np.arange(i + 2, n if i > 0 else n - 1)
            if len(j) == 0:
                continue
            r = p[j] - p[i]
            cross_dd = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
            cross_rd = r[:, 0] * d[j, 1] - r[:, 1] * d[j, 0]
            cross_rd2 = r[:, 0] * d[i, 1] - r[:, 1] * d[i, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = cross_rd / cross_dd
                u = -cross_rd2 / cross_dd
            hit = (np.abs(cross_dd) > 1e-14) & (s > 0) & (s < 1) & (u > 0) & (u < 1)
            if np.any(hit):
                raise ValueError("curve self-intersects at sample resolution")
        return True


@dataclass(frozen=True)
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

    @classmethod
    def from_dict(cls, entries, order):
        """Build from a ``{n: value}`` mapping; unset modes are zero."""
        c = np.zeros(2 * order + 1, dtype=complex)
        for n, v in entries.items():
            if abs(n) > order:
                raise ValueError(f"mode {n} exceeds order {order}")
            c[n + order] = v
        return cls(c, order)

    @property
    def modes(self):
        return np.arange(-self.order, self.order + 1)

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
    least ``2*order+1`` samples are supplied.  Real input is analyzed with
    the real transform so the output is conjugate-symmetric exactly.
    """
    s = np.asarray(samples)
    n = s.shape[0]
    if n < 2 * order + 1:
        raise InsufficientSamples(
            f"{n} samples cannot resolve order {order}; need at least {2 * order + 1}")
    out = np.zeros(2 * order + 1, dtype=complex)
    if np.isrealobj(s):
        pos = np.fft.rfft(s) / n
        top = min(order, n // 2)
        out[order:order + top + 1] = pos[:top + 1]
        out[:order] = np.conj(out[order + 1:])[::-1]
    else:
        full = np.fft.fft(s) / n
        for k in range(-order, order + 1):
            out[k + order] = full[k % n]
    return FourierData(out, order)


def fourier_eval(data, theta):
    """Evaluate ``sum_n c_n exp(i n theta)``; vectorized in ``theta``."""
    theta = np.asarray(theta, dtype=float)
    phases = np.exp(1j * np.multiply.outer(theta, data.modes))
    return phases @ data.coeffs

