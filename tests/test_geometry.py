import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk.exceptions import InsufficientSamples
from eitdisk.geometry import BoundaryCurve, fourier_analyze


class TestCurveEvaluation:
    def test_circle_point(self):
        c = BoundaryCurve.circle(radius=0.3)
        assert np.allclose(c.point(0.0), [0.3, 0.0])

    def test_ellipse_point(self):
        c = BoundaryCurve.ellipse(0.5, 0.3)
        assert np.allclose(c.point(np.pi / 2), [0.0, 0.3], atol=1e-15)

    def test_cardioid_point_at_zero(self):
        # r(0) = (0.35 + 0.3 + 0.05*sin 0) / (1 + 0.7) = 0.65/1.7
        c = BoundaryCurve.cardioid()
        assert np.allclose(c.point(0.0), [0.65 / 1.7, 0.0])
        assert abs(c.point(0.0)[0] - 0.38235294117647056) < 1e-15

    def test_periodicity(self):
        for c in (BoundaryCurve.ellipse(0.5, 0.3), BoundaryCurve.cardioid()):
            t = np.linspace(0, 2 * np.pi, 7)
            assert np.allclose(c.point(t), c.point(t + 2 * np.pi), atol=1e-12)

    def test_trig_matches_circle(self):
        c = BoundaryCurve.trig([[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]])
        ref = BoundaryCurve.circle(radius=0.5)
        t = np.linspace(0, 2 * np.pi, 33)
        assert np.allclose(c.point(t), ref.point(t), atol=1e-14)
        assert np.allclose(c.jacobian(t), 0.5, atol=1e-14)


class TestNormalsAndJacobian:
    def test_unit_circle_outer_normal(self):
        c = BoundaryCurve.circle(radius=1.0)
        assert np.allclose(c.normal(0.0), [1.0, 0.0])

    def test_ellipse_outer_normal(self):
        c = BoundaryCurve.ellipse(0.5, 0.3)
        t = np.pi / 4
        raw = np.array([0.3 * np.cos(t), 0.5 * np.sin(t)])
        assert np.allclose(c.normal(t), raw / np.linalg.norm(raw), atol=1e-14)

    @pytest.mark.parametrize("curve", [
        BoundaryCurve.circle(radius=0.4),
        BoundaryCurve.circle((0.3, -0.2), 0.25),
        BoundaryCurve.ellipse(0.5, 0.3),
        BoundaryCurve.cardioid(),
    ], ids=["circle", "offcentre_circle", "ellipse", "cardioid"])
    def test_normal_points_away_from_centroid(self, curve):
        # star-shaped test curves: the normal has a positive radial component
        t = curve.nodes(64)
        pts = curve.point(t)
        n = curve.normal(t)
        assert np.all(np.einsum("ij,ij->i", n, pts - pts.mean(axis=0)) > 0)

    def test_normal_is_unit_and_orthogonal_to_the_tangent(self):
        c = BoundaryCurve.cardioid()
        t = c.nodes(64)
        n = c.normal(t)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", n, c.velocity(t)), 0.0, atol=1e-14)

    def test_circle_jacobian_is_radius(self):
        c = BoundaryCurve.circle(radius=0.7)
        assert np.allclose(c.jacobian(np.linspace(0, 6, 11)), 0.7)

    def test_ellipse_jacobian(self):
        c = BoundaryCurve.ellipse(0.5, 0.3)
        assert abs(c.jacobian(0.0) - 0.3) < 1e-15

    def test_jacobian_positive_all_kinds(self):
        curves = [BoundaryCurve.circle(radius=0.3), BoundaryCurve.ellipse(0.5, 0.3),
                  BoundaryCurve.cardioid(),
                  BoundaryCurve.trig([[0.4, 0.02], [0.0, 0.0]],
                                     [[0.0, 0.01], [0.35, 0.0]])]
        for c in curves:
            assert np.all(c.jacobian(c.nodes(256)) > 0)
            c.validate(256)

    def test_derivatives_match_finite_differences(self):
        c = BoundaryCurve.cardioid()
        t = np.linspace(0.1, 6.0, 9)
        h = 1e-6
        fd_v = (c.point(t + h) - c.point(t - h)) / (2 * h)
        fd_a = (c.point(t + h) - 2 * c.point(t) + c.point(t - h)) / h**2
        assert np.allclose(c.velocity(t), fd_v, atol=1e-8)
        assert np.allclose(c.acceleration(t), fd_a, atol=1e-3)


class TestDegreeOneClosedForms:
    """Circles and ellipses are degree-one trigonometric curves; their values
    equal the closed forms the separate circle and ellipse branches computed."""

    @pytest.mark.parametrize("curve, cx, cy, a, b", [
        (BoundaryCurve.circle((0.3, -0.2), 0.25), 0.3, -0.2, 0.25, 0.25),
        (BoundaryCurve.ellipse(0.5, 0.3), None, None, 0.5, 0.3),
    ], ids=["offcentre_circle", "ellipse"])
    def test_values_equal_the_closed_forms(self, curve, cx, cy, a, b):
        t = curve.nodes(64)
        if cx is None:
            point = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
        else:
            point = np.stack([cx + a * np.cos(t), cy + b * np.sin(t)], axis=-1)
        v = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
        acc = np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1)
        j = np.sqrt((v**2).sum(axis=-1))
        assert np.array_equal(curve.point(t), point)
        assert np.array_equal(curve.velocity(t), v)
        assert np.array_equal(curve.acceleration(t), acc)
        assert np.array_equal(curve.jacobian(t), j)
        assert np.array_equal(curve.normal(t), np.stack([v[:, 1], -v[:, 0]], axis=-1) / j[:, None])
        assert np.array_equal(curve.curvature(t),
                              (v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]) / j**3)

    def test_scalar_parameter(self):
        c = BoundaryCurve.circle((0.3, -0.2), 0.25)
        assert c.point(0.7).shape == (2,)
        assert np.array_equal(c.point(0.7), [0.3 + 0.25 * np.cos(0.7), -0.2 + 0.25 * np.sin(0.7)])


def cardioid_closed_form(theta):
    """Position, velocity and acceleration of the rational test shape
    ``r = (0.35 + 0.3 cos t + 0.05 sin 2t) / (1 + 0.7 cos t)`` in polar form,
    with ``r'`` and ``r''`` by the quotient rule."""
    c, s = np.cos(theta), np.sin(theta)
    p = 0.35 + 0.3 * c + 0.05 * np.sin(2 * theta)
    q = 1.0 + 0.7 * c
    pd = -0.3 * s + 0.1 * np.cos(2 * theta)
    qd = -0.7 * s
    pdd = -0.3 * c - 0.2 * np.sin(2 * theta)
    qdd = -0.7 * c
    r = p / q
    rd = (pd * q - p * qd) / q**2
    rdd = (pdd * q - p * qdd) / q**2 - 2 * qd * rd / q
    point = np.stack([r * c, r * s], axis=-1)
    velocity = np.stack([rd * c - r * s, rd * s + r * c], axis=-1)
    acceleration = np.stack([(rdd - r) * c - 2 * rd * s, (rdd - r) * s + 2 * rd * c], axis=-1)
    return point, velocity, acceleration


class TestCardioidCoefficients:
    """The cardioid is stored as its degree-40 trigonometric interpolant; the
    rational closed form is the oracle for every quantity the solver uses."""

    t = np.linspace(0.0, 2 * np.pi, 1001)

    def test_degree_and_centre(self):
        c = BoundaryCurve.cardioid()
        assert c.cos_coef.shape == c.sin_coef.shape == (2, 40)
        assert np.allclose(c.center, (0.0449, -0.0119), atol=1e-4)

    def test_derivatives_match_the_closed_form(self):
        c = BoundaryCurve.cardioid()
        point, velocity, acceleration = cardioid_closed_form(self.t)
        assert np.abs(c.point(self.t) - point).max() <= 1e-15
        assert np.abs(c.velocity(self.t) - velocity).max() <= 1e-13
        assert np.abs(c.acceleration(self.t) - acceleration).max() <= 1e-11

    def test_normal_and_curvature_match_the_closed_form(self):
        c = BoundaryCurve.cardioid()
        _, v, a = cardioid_closed_form(self.t)
        j = np.sqrt((v**2).sum(axis=-1))
        normal = np.stack([v[:, 1], -v[:, 0]], axis=-1) / j[:, None]
        curvature = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / j**3
        assert np.abs(c.normal(self.t) - normal).max() <= 1e-12
        assert np.abs(c.curvature(self.t) - curvature).max() <= 1e-11 * np.abs(curvature).max()


def chord_loop_verdict(curve, n):
    """Reference for :meth:`BoundaryCurve.validate`: the per-chord loop it
    replaced.  Returns the error message, or ``None`` for a valid curve."""
    t = curve.nodes(n)
    if np.any(curve.jacobian(t) <= 1e-12):
        return "curve Jacobian is not positive at sample nodes"
    p = curve.point(t)
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
            return "curve self-intersects at sample resolution"
    return None


def validate_verdict(curve, n):
    try:
        curve.validate(n)
    except ValueError as exc:
        return str(exc)
    return None


def random_trig_curve(seed):
    """A circle of radius 0.4 plus random higher modes; large amplitudes loop."""
    rng = np.random.Generator(np.random.Philox(seed))
    degree = int(rng.integers(2, 6))
    amp = rng.uniform(0.0, 0.3)
    a = amp * rng.normal(size=(2, degree)) / np.arange(1, degree + 1)
    b = amp * rng.normal(size=(2, degree)) / np.arange(1, degree + 1)
    a[0, 0] += 0.4
    b[1, 0] += 0.4
    return BoundaryCurve.trig(a, b)


class TestValidate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([16, 64, 256]))
    def test_agrees_with_the_chord_loop(self, seed, n):
        curve = random_trig_curve(seed)
        assert validate_verdict(curve, n) == chord_loop_verdict(curve, n)

    def test_random_curves_cover_both_verdicts(self):
        # the property above is not vacuous: the generator makes both kinds
        verdicts = {chord_loop_verdict(random_trig_curve(seed), 64) for seed in range(40)}
        assert {None, "curve self-intersects at sample resolution"} <= verdicts

    @pytest.mark.parametrize("n", [4, 5, 16])
    def test_small_node_counts(self, n):
        for curve in (BoundaryCurve.circle(radius=0.5), random_trig_curve(3)):
            assert validate_verdict(curve, n) == chord_loop_verdict(curve, n)


class TestFourier:
    def test_constant(self):
        d = fourier_analyze(np.ones(16), 5)
        assert abs(d.coefficient(0) - 1.0) < 1e-15
        assert np.all(np.abs(np.delete(d.coeffs, 5)) < 1e-15)

    def test_cosine_mode(self):
        t = 2 * np.pi * np.arange(16) / 16
        d = fourier_analyze(np.cos(3 * t), 5)
        assert abs(d.coefficient(3) - 0.5) < 1e-14
        assert abs(d.coefficient(-3) - 0.5) < 1e-14

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fourier_analyze(np.ones(8), 5)

    @pytest.mark.parametrize("samples", [np.ones(16, dtype=complex), np.exp(1j * np.arange(16))])
    def test_complex_samples_rejected(self, samples):
        # numpy 1.x rfft would drop the imaginary part with only a warning
        with pytest.raises(ValueError, match="real samples"):
            fourier_analyze(samples, 5)

    def test_poisson_kernel_coefficients(self):
        # geometric expansion of the Poisson kernel checked by quadrature
        r, tz = 0.5, 0.0
        t = 2 * np.pi * np.arange(256) / 256
        vals = (1 - r**2) / (2 * np.pi * (r**2 + 1 - 2 * r * np.cos(t - tz)))
        d = fourier_analyze(vals, 5)
        for n in range(-5, 6):
            assert abs(d.coefficient(n) - 0.5 ** abs(n) / (2 * np.pi)) < 1e-12

    def test_analyze_eval_roundtrip_value(self):
        # sin 2t has b_2 = 1: c_2 = -i/2, c_-2 = i/2 and every other mode is zero
        t = 2 * np.pi * np.arange(32) / 32
        d = fourier_analyze(np.sin(2 * t), 5)
        want = {2: -0.5j, -2: 0.5j}
        for n in range(-5, 6):
            assert abs(d.coefficient(n) - want.get(n, 0.0)) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    def test_roundtrip_trig_polynomials(self, coeffs):
        # a degree-4 trig polynomial sampled at 16 nodes has c_0 = a_0 and
        # c_(+-m) = (a_m -+ i b_m) / 2, up to rounding
        t = 2 * np.pi * np.arange(16) / 16
        vals = coeffs[0] * np.ones_like(t)
        for m in range(1, 5):
            vals += coeffs[m] * np.cos(m * t) + coeffs[4 + m] * np.sin(m * t)
        d = fourier_analyze(vals, 4)
        tol = 1e-12 * max(1.0, np.max(np.abs(vals)))
        assert abs(d.coefficient(0) - coeffs[0]) < tol
        for m in range(1, 5):
            a, b = coeffs[m], coeffs[4 + m]
            assert abs(d.coefficient(m) - (a - 1j * b) / 2) < tol
            assert abs(d.coefficient(-m) - (a + 1j * b) / 2) < tol

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reality_exact_conjugate_symmetry(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        d = fourier_analyze(rng.normal(size=32), 10)
        assert np.array_equal(d.coeffs, np.conj(d.coeffs[::-1]))

