import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk.exceptions import InsufficientSamples
from eitdisk.geometry import (BoundaryCurve, FourierData, fourier_analyze,
                              fourier_eval)


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

    def test_poisson_kernel_coefficients(self):
        # geometric expansion of the Poisson kernel checked by quadrature
        r, tz = 0.5, 0.0
        t = 2 * np.pi * np.arange(256) / 256
        vals = (1 - r**2) / (2 * np.pi * (r**2 + 1 - 2 * r * np.cos(t - tz)))
        d = fourier_analyze(vals, 5)
        for n in range(-5, 6):
            assert abs(d.coefficient(n) - 0.5 ** abs(n) / (2 * np.pi)) < 1e-12

    def test_eval_constant(self):
        d = FourierData.from_dict({0: 1.0}, 3)
        assert abs(fourier_eval(d, 1.3) - 1.0) < 1e-15

    def test_eval_cosine(self):
        d = FourierData.from_dict({1: 0.5, -1: 0.5}, 2)
        assert abs(fourier_eval(d, 0.0) - 1.0) < 1e-15

    def test_analyze_eval_roundtrip_value(self):
        t = 2 * np.pi * np.arange(32) / 32
        d = fourier_analyze(np.sin(2 * t), 5)
        got = fourier_eval(d, np.pi / 3)
        assert abs(got - np.sin(2 * np.pi / 3)) < 1e-12
        assert abs(got.real - 0.8660254037844387) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    def test_roundtrip_trig_polynomials(self, coeffs):
        # degree-4 trig polynomial sampled at 16 nodes reproduces exactly
        t = 2 * np.pi * np.arange(16) / 16
        vals = coeffs[0] * np.ones_like(t)
        for m in range(1, 5):
            vals += coeffs[m] * np.cos(m * t) + coeffs[4 + m] * np.sin(m * t)
        d = fourier_analyze(vals, 4)
        back = fourier_eval(d, t).real
        assert np.max(np.abs(back - vals)) < 1e-12 * max(1.0, np.max(np.abs(vals)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reality_exact_conjugate_symmetry(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        d = fourier_analyze(rng.normal(size=32), 10)
        assert np.array_equal(d.coeffs, np.conj(d.coeffs[::-1]))

