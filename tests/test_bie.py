import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg as la  # loaded before any test traces memory
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitdisk.annulus import (AnnulusConfig, gap_coefficient, gap_operator,
                             inner_trace_coefficient)
from eitdisk import bie
from eitdisk.bie import (NystromMesh, double_layer, dtn_matrix,
                         modified_double_layer, normal_derivative,
                         single_layer, solve_forward)
from eitdisk.dtn import (gap_from_lambda0, healthy_collocation_matrix,
                         to_real_trig_basis)
from eitdisk.exceptions import CoincidentPoints, DegenerateTangent, SingularSystem
from eitdisk.geometry import BoundaryCurve
from eitdisk.regularization import perturb_vector


def unit_mesh(n=64):
    return NystromMesh(BoundaryCurve.circle(radius=1.0), n)


def inner_circle(n, rho):
    return NystromMesh(BoundaryCurve.circle(radius=rho), n)


class TestMesh:
    def test_cusp_at_a_node_raises_degenerate_tangent(self):
        # x = 0.2 e^{it} - 0.1 e^{2it} has x'(0) = 0, and theta = 0 is a node
        cusp = BoundaryCurve.trig([[0.2, -0.1], [0.0, 0.0]], [[0.0, 0.0], [0.2, -0.1]])
        with pytest.raises(DegenerateTangent):
            NystromMesh(cusp, 8)


class TestCoincidentPoints:
    def test_single_layer_at_a_source_node(self):
        mesh = inner_circle(32, 0.5)
        with pytest.raises(CoincidentPoints):
            single_layer(mesh, mesh.points[:1])

    def test_monopole_at_the_origin(self):
        with pytest.raises(CoincidentPoints):
            modified_double_layer(inner_circle(32, 0.5), [[0.0, 0.0]])

    @pytest.mark.parametrize("kernel", [double_layer, modified_double_layer])
    def test_double_layers_at_source_nodes(self, kernel):
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        with pytest.raises(CoincidentPoints):
            kernel(mesh, mesh.points[:2])

    @pytest.mark.parametrize("kernel", [double_layer, modified_double_layer, single_layer])
    def test_layers_on_a_second_mesh_of_the_same_curve(self, kernel):
        curve = BoundaryCurve.ellipse(0.5, 0.3)
        with pytest.raises(CoincidentPoints):
            kernel(NystromMesh(curve, 32), NystromMesh(curve, 32))

    @pytest.mark.parametrize("of", ["single_layer", "double_layer"])
    def test_image_layers_at_source_nodes(self, of):
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        with pytest.raises(CoincidentPoints):
            bie._image(mesh, mesh.points[:2], of)


def entrywise_spectral_diff_matrix(n):
    """``0.5 (-1)^(i-j) cot((i-j) pi / n)`` off the diagonal, zero on it."""
    d = np.zeros((n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off = i != j
    d[off] = 0.5 * (-1.0) ** (i[off] - j[off]) / np.tan((i[off] - j[off]) * np.pi / n)
    return d


class TestSpectralDiffMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 31, 64, 100, 256, 512])
    def test_bits_equal_the_entrywise_formula(self, n):
        got = bie.spectral_diff_matrix(n)
        want = entrywise_spectral_diff_matrix(n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_differentiates_resolved_sines(self, n):
        theta = 2 * np.pi * np.arange(n) / n
        d = bie.spectral_diff_matrix(n)
        for k in range(1, n // 2):
            err = np.max(np.abs(d @ np.sin(k * theta) - k * np.cos(k * theta)))
            assert err < 1e-14 * n * k, k


class TestKressLogWeights:
    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_eigenvalues_are_minus_two_pi_over_mode(self, n):
        w = bie.kress_log_weights(n)
        t = 2 * np.pi * np.arange(n) / n
        assert np.max(np.abs(w @ np.ones(n))) < 1e-12
        for m in range(1, n // 2):
            for f in (np.cos(m * t), np.sin(m * t)):
                assert np.max(np.abs(w @ f + (2 * np.pi / m) * f)) < 1e-12, m


class TestLogSplitFactor:
    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_factor_is_accurate_to_rounding(self, n):
        # 4 sin^2((t_i - t_j)/2) against long double with its own pi: no
        # rounding of t_i - t_j may enter, only that of one sine per lag
        got = bie._sin2_lags(n)
        lag = (np.arange(n)[:, None] - np.arange(n)[None, :]).astype(np.longdouble)
        want = 4 * np.sin(np.longdouble("3.14159265358979323846264338327950288") * lag / n) ** 2
        off = lag != 0
        assert not got[~off].any()
        assert float(np.max(abs(got[off] - want[off]) / want[off])) <= 1e-15


class TestDoubleLayer:
    def test_gauss_identity_inside(self):
        mesh = unit_mesh()
        val = double_layer(mesh, np.array([[0.3, 0.1]])) @ np.ones(64)
        assert abs(val[0] + 2.0) < 1e-12

    def test_gauss_identity_outside(self):
        mesh = inner_circle(64, 0.5)
        val = double_layer(mesh, np.array([[10.0, 0.0]])) @ np.ones(64)
        assert abs(val[0]) < 1e-12

    def test_gauss_identity_on_curve(self):
        # the cardioid parametrization has a nearby complex pole, so its
        # trapezoidal quadrature needs more nodes for the same accuracy
        cases = [(BoundaryCurve.circle(radius=1.0), 64),
                 (BoundaryCurve.ellipse(0.5, 0.3), 64),
                 (BoundaryCurve.cardioid(), 256)]
        for curve, n in cases:
            mesh = NystromMesh(curve, n)
            row_sums = double_layer(mesh, mesh) @ np.ones(n)
            assert np.max(np.abs(row_sums + 1.0)) < 1e-10

    def test_entries_match_kernel(self):
        src = inner_circle(32, 0.5)
        tgt = unit_mesh(16)
        mat = double_layer(src, tgt)
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            ker = (d @ src.normals[j]) / (d @ d) / (2 * np.pi)
            want = 2.0 * ker * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14


class TestModifiedDoubleLayer:
    def test_zero_mean_density_equals_plain(self):
        mesh = inner_circle(64, 0.5)
        t = mesh.theta
        psi = np.cos(3 * t)
        pts = np.array([[0.7, 0.2]])
        plain = double_layer(mesh, pts) @ psi
        mod = modified_double_layer(mesh, pts) @ psi
        assert abs(mod[0] - plain[0]) < 1e-12

    def test_monopole_vanishes_on_unit_circle(self):
        src = inner_circle(32, 0.4)
        tgt = unit_mesh(32)
        plain = double_layer(src, tgt)
        mono = modified_double_layer(src, tgt)
        assert np.max(np.abs(plain - mono)) < 1e-14

    def test_requires_origin_inside(self):
        mesh = NystromMesh(BoundaryCurve.circle(center=(2.0, 0.0), radius=0.3), 32)
        with pytest.raises(ValueError):
            modified_double_layer(mesh, np.array([[0.0, 0.0]]))


class TestSingleLayer:
    def test_constant_density_at_center_unit(self):
        mesh = unit_mesh()
        val = single_layer(mesh, np.array([[0.0, 0.0]])) @ np.ones(64)
        assert abs(val[0]) < 1e-13

    def test_constant_density_at_center_half(self):
        mesh = inner_circle(64, 0.5)
        val = single_layer(mesh, np.array([[0.0, 0.0]])) @ np.ones(64)
        assert abs(val[0] - (-0.5 * np.log(0.5))) < 1e-13
        assert abs(-0.5 * np.log(0.5) - 0.34657359027997264) < 1e-15

    def test_self_interaction_circle_symbol(self):
        # S[cos(k s)] = (rho / 2k) cos(k t) on a circle of radius rho
        mesh = inner_circle(64, 0.5)
        t = mesh.theta
        s = single_layer(mesh, mesh)
        for k in range(1, 5):
            got = s @ np.cos(k * t)
            want = 0.5 / (2 * k) * np.cos(k * t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_entries_match_kernel(self):
        src = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        tgt = unit_mesh(16)
        mat = single_layer(src, tgt)
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            want = -np.log(d @ d) / (4 * np.pi) * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14


class TestNormalDerivative:
    @pytest.mark.parametrize("of", ["single_layer", "double_layer", "modified_double_layer"])
    @pytest.mark.parametrize("target", ["second mesh", "other curve"])
    def test_target_other_than_its_source_rejected(self, of, target):
        curve = BoundaryCurve.ellipse(0.5, 0.3)
        other = (NystromMesh(curve, 32) if target == "second mesh" else unit_mesh(32))
        with pytest.raises(ValueError, match="source mesh only"):
            normal_derivative(NystromMesh(curve, 32), other, of=of)

    def test_same_curve_single_layer_entries(self):
        # off the diagonal the kernel itself, on it the limit -curvature/(4 pi)
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        mat = normal_derivative(mesh, mesh, of="single_layer")
        w = mesh.jacobians * mesh.weight
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(5):
            i, j = (int(k) for k in rng.choice(32, size=2, replace=False))
            d = mesh.points[i] - mesh.points[j]
            want = -(d @ mesh.normals[i]) / (d @ d) / (2 * np.pi) * w[j]
            assert abs(mat[i, j] - want) < 1e-14
        assert np.max(np.abs(np.diag(mat) + mesh.curvature / (4 * np.pi) * w)) < 1e-15

    @pytest.mark.parametrize("of", ["single_layer", "double_layer", "modified_double_layer"])
    def test_point_targets_rejected(self, of):
        with pytest.raises(TypeError, match="target mesh"):
            normal_derivative(unit_mesh(16), np.array([[0.1, 0.2]]), of=of)

    @pytest.mark.parametrize("pair", ["circle", "ellipse", "separated"])
    def test_unknown_layer_kind_rejected(self, pair):
        ellipse = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 16)
        source, target = {"circle": (unit_mesh(16),) * 2, "ellipse": (ellipse, ellipse),
                          "separated": (ellipse, unit_mesh(16))}[pair]
        with pytest.raises(ValueError, match="unknown layer kind 'triple_layer'"):
            normal_derivative(source, target, of="triple_layer")

    def test_hypersingular_circle_symbol(self):
        # factor-2 normal derivative of the double layer on the unit circle
        # multiplies cos(k t) by -k
        mesh = unit_mesh(64)
        t = mesh.theta
        mat = normal_derivative(mesh, mesh, of="double_layer")
        for k in range(1, 5):
            got = mat @ np.cos(k * t)
            assert np.max(np.abs(got + k * np.cos(k * t))) < 1e-6

    def test_hypersingular_annihilates_constants(self):
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
        mat = normal_derivative(mesh, mesh, of="double_layer")
        assert np.max(np.abs(mat @ np.ones(64))) < 1e-10

    def test_monopole_flux_on_unit_circle(self):
        # d/dnu log|x| = 1 on the unit circle: the monopole term adds
        # 2 * (integral of psi) to every flux value there
        src = tgt = unit_mesh(32)
        plain = normal_derivative(src, tgt, of="double_layer")
        mono = normal_derivative(src, tgt, of="modified_double_layer")
        psi = np.ones(32)
        diff = (mono - plain) @ psi
        want = 2.0 * np.sum(src.arc_weights())
        assert np.max(np.abs(diff - want)) < 1e-12


CIRCLES = [BoundaryCurve.circle(radius=1.0), BoundaryCurve.circle((0.2, -0.1), 0.5)]


class TestClosedFormCircleBlocks:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("curve", CIRCLES, ids=["unit", "offset"])
    def test_double_layer_is_minus_ones_over_n(self, curve, n):
        mesh = NystromMesh(curve, n)
        assert np.abs(double_layer(mesh, mesh) + np.ones((n, n)) / n).max() < 1e-13

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("curve", CIRCLES, ids=["unit", "offset"])
    def test_maue_block_is_minus_healthy_over_radius(self, curve, n):
        mesh = NystromMesh(curve, n)
        want = -healthy_collocation_matrix(n) / curve.cos_coef[0, 0]
        maue = 2.0 * bie._hypersingular_maue(mesh)
        assert np.abs(maue - want).max() < 1e-13 + 1e-10 * np.abs(want).max()
        assert np.array_equal(normal_derivative(mesh, mesh), want)

    def test_non_circular_outer_boundary_rejected(self):
        inner = inner_circle(32, 0.3)
        for curve in (BoundaryCurve.ellipse(1.0, 0.9), BoundaryCurve.circle(radius=0.9),
                      BoundaryCurve.circle((0.05, 0.0), 1.0)):
            outer = NystromMesh(curve, 32)
            with pytest.raises(ValueError, match="unit measurement circle"):
                solve_forward(outer, inner, "dirichlet", np.ones(32))


# the kernels as they were before they computed in place, every intermediate
# in a new array; kept as the bitwise reference for the in-place kernels
def frozen_pair(source, target):
    pts = bie._points(target)
    dx = pts[:, 0, None] - source.points[:, 0]
    dy = pts[:, 1, None] - source.points[:, 1]
    return dx, dy, dx * dx + dy * dy


def frozen_double_layer(source, target):
    dx, dy, r2 = frozen_pair(source, target)
    num = dx * source.normals[:, 0] + dy * source.normals[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = num / r2 / (2.0 * np.pi)
    if target is source:
        np.fill_diagonal(ker, -source.curvature / (4.0 * np.pi))
    return 2.0 * ker * source.arc_weights()[None, :]


def frozen_modified_double_layer(source, target):
    pts = bie._points(target)
    r = np.sqrt((pts**2).sum(axis=1))
    extra = np.log(r)[:, None] * source.arc_weights()[None, :]
    return frozen_double_layer(source, target) + 2.0 * extra


def frozen_single_layer(source, target):
    if target is source:
        return frozen_log_split(source) * source.jacobians[None, :]
    _, _, r2 = frozen_pair(source, target)
    return -np.log(r2) / (4.0 * np.pi) * source.arc_weights()[None, :]


def frozen_log_split(source):
    n = source.n
    _, _, r2 = frozen_pair(source, source)
    # 4 sin^2(pi k / n) at each entry's lag k, |i - j| or n - |i - j|, whichever is smaller
    lag = abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    s2 = (4.0 * np.sin(np.arange(n // 2 + 1) * (np.pi / n)) ** 2)[np.minimum(lag, n - lag)]
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = np.log(r2 / s2)
    np.fill_diagonal(smooth, 2.0 * np.log(source.jacobians))
    return -(bie.kress_log_weights(source.n) + source.weight * smooth) / (4.0 * np.pi)


def frozen_normal_derivative(source, target, of="double_layer"):
    assert target is source
    fac = 1.0 if of == "single_layer" else 2.0
    if of == "single_layer":
        dx, dy, r2 = frozen_pair(source, source)
        tn = source.normals
        dnx = dx * tn[:, 0, None] + dy * tn[:, 1, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = -dnx / r2 / (2.0 * np.pi)
        np.fill_diagonal(ker, -source.curvature / (4.0 * np.pi))
        mat = fac * ker * source.arc_weights()[None, :]
    elif source.curve.kind == "circle":
        mat = -healthy_collocation_matrix(source.n) / source.curve.cos_coef[0, 0]
    else:
        dmat = bie.spectral_diff_matrix(source.n)
        w = frozen_log_split(source)
        mat = fac * ((dmat @ w @ dmat) / source.jacobians[:, None])
    if of == "modified_double_layer":
        r2 = (source.points**2).sum(axis=1)
        dlog = np.einsum("ik,ik->i", source.points, source.normals) / r2
        mat = mat + fac * dlog[:, None] * source.arc_weights()[None, :]
    return mat


def frozen_image(source, target, kind):
    pts, sn, w = bie._points(target), source.normals, source.arc_weights()
    dx, dy, r2 = frozen_pair(source, target)
    rest_x = 1.0 - (pts**2).sum(axis=1)
    q = r2 + np.outer(rest_x, 1.0 - (source.points**2).sum(axis=1))
    if kind == "single_layer":
        return np.log(q) / (4.0 * np.pi) * w
    yn = np.einsum("ik,ik->i", source.points, sn)
    b = (dx * sn[:, 0] + dy * sn[:, 1] + np.outer(rest_x, yn)) / q
    if kind == "double_layer":
        return b / -np.pi * w
    assert target is source
    a = (dx * sn[:, 0, None] + dy * sn[:, 1, None] - np.outer(yn, rest_x)) / q
    if kind == "single_flux":
        return a / (2.0 * np.pi) * w
    nn = np.outer(2.0 * yn, yn) - sn[:, 0, None] * sn[:, 0] - sn[:, 1, None] * sn[:, 1]
    return (nn / q - a * -b * 2.0) / np.pi * w


def frozen_forward_matrix(inner, g):
    s_g = frozen_single_layer(inner, inner) + frozen_image(inner, inner, "single_layer")
    if g is None:
        return s_g
    kp = (frozen_normal_derivative(inner, inner, of="single_layer")
          + frozen_image(inner, inner, "single_flux") - 0.5 * np.eye(inner.n))
    return -kp + g[:, None] * s_g


# live and frozen kernel of each kind
LAYER_KINDS = ("single_layer", "double_layer", "modified_double_layer")
IMAGE_KINDS = ("single_layer", "double_layer", "single_flux", "double_flux")
KERNELS = {"double_layer": (double_layer, frozen_double_layer),
           "modified_double_layer": (modified_double_layer, frozen_modified_double_layer),
           "single_layer": (single_layer, frozen_single_layer),
           **{f"normal_derivative:{of}": (partial(normal_derivative, of=of),
                                          partial(frozen_normal_derivative, of=of))
              for of in LAYER_KINDS},
           **{f"image:{kind}": (partial(bie._image, kind=kind), partial(frozen_image, kind=kind))
              for kind in IMAGE_KINDS}}
# (kernel, source, target): every layer from and to each mesh and at points,
# every normal derivative on each mesh, and the image parts on the inclusion
# and from it to the points
MESH_PAIRS = [("outer", "inner"), ("inner", "outer"), ("inner", "inner"), ("outer", "outer")]
KERNEL_CASES = ([(layer, s, t) for layer in LAYER_KINDS
                 for s, t in MESH_PAIRS + [("outer", "points"), ("inner", "points")]]
                + [(f"normal_derivative:{of}", s, s) for of in LAYER_KINDS
                   for s in ("inner", "outer")]
                + [(f"image:{kind}", "inner", t) for kind in IMAGE_KINDS[:2]
                   for t in ("inner", "points")]
                + [(f"image:{kind}", "inner", "inner") for kind in IMAGE_KINDS[2:]])
INCLUSIONS = {"circle": BoundaryCurve.circle(radius=0.5),
              "ellipse": BoundaryCurve.ellipse(0.5, 0.3),
              "cardioid": BoundaryCurve.cardioid()}


def kernel_operands(outer, inner):
    # points between the curves and near the origin, inside every inclusion
    angles = 2 * np.pi * np.arange(17) / 17 + 0.1
    points = np.vstack([np.outer([0.8, 0.9], np.cos(angles)).ravel(),
                        np.outer([0.8, 0.9], np.sin(angles)).ravel()]).T
    return {"outer": outer, "inner": inner,
            "points": np.vstack([points, [[0.05, 0.02], [-0.03, 0.01]]])}


def impedance_with_zeros(inner):
    """``2 - sin^4`` on the right half of the inclusion, exactly 0 elsewhere."""
    return np.where(np.cos(inner.theta) > 0, 2.0 - np.sin(inner.theta) ** 4, 0.0)


def assert_same_bits(got, want, what):
    # compared as integers, so -0.0 against 0.0 and NaN payloads count
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), what


def traced_peak(call):
    """Peak traced bytes of ``call()`` above the bytes alive at its start,
    its result included."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def frozen_solve_forward(outer, inner, bc, f, g):
    """Density and boundary data of :func:`solve_forward` from the frozen
    kernels, every intermediate in a new array."""
    ext = bie._harmonic_extension(outer.n, inner.points, None)
    dext = bie._harmonic_extension(outer.n, inner.points, inner.normals)
    if bc == "dirichlet":
        rhs = -(ext @ f)
    else:
        rhs = dext @ f - ((ext @ f).T * g).T
    phi = la.lu_solve(la.lu_factor(frozen_forward_matrix(inner, g)), rhs)
    adjoint = (frozen_normal_derivative(inner, inner, of="single_layer")
               + frozen_image(inner, inner, "single_flux") - 0.5 * np.eye(inner.n))
    weighted = (phi.T * inner.arc_weights()).T
    return {
        "phi": phi,
        "outer_flux": (healthy_collocation_matrix(outer.n) @ f
                       - (outer.n / (2.0 * np.pi)) * (ext.T @ weighted)),
        "inner_trace": ext @ f + frozen_forward_matrix(inner, None) @ phi,
        "inner_flux": -(dext @ f + adjoint @ phi),
    }


class TestInPlaceKernels:
    """The in-place kernels against copies of the kernels that formed every
    intermediate in a new array: the same bits, in a fraction of the memory."""

    @pytest.mark.parametrize("n_outer, n_inner", [(64, 64), (256, 256), (256, 64)])
    @pytest.mark.parametrize("curve", INCLUSIONS.values(), ids=INCLUSIONS.keys())
    def test_kernels_keep_the_bits_of_the_frozen_copies(self, curve, n_outer, n_inner):
        ops = kernel_operands(unit_mesh(n_outer), NystromMesh(curve, n_inner))
        for kind, source, target in KERNEL_CASES:
            live, frozen = KERNELS[kind]
            assert_same_bits(live(ops[source], ops[target]), frozen(ops[source], ops[target]),
                             (kind, source, target))

    @pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("curve", INCLUSIONS.values(), ids=INCLUSIONS.keys())
    def test_forward_matrix_keeps_the_bits_of_the_frozen_copy(self, curve, n, bc):
        inner = NystromMesh(curve, n)
        g = impedance_with_zeros(inner) if bc == "impedance" else None
        assert_same_bits(bie._forward_matrix(inner, g), frozen_forward_matrix(inner, g), bc)

    @pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
    @pytest.mark.parametrize("columns", [None, 5])
    @pytest.mark.parametrize("curve", INCLUSIONS.values(), ids=INCLUSIONS.keys())
    def test_boundary_data_keep_the_bits_of_the_frozen_copies(self, curve, columns, bc):
        outer, inner = unit_mesh(64), NystromMesh(curve, 48)
        g = impedance_with_zeros(inner) if bc == "impedance" else None
        f = np.cos(np.outer(outer.theta, np.arange(columns or 1)) + 0.2)
        if not columns:
            f = f[:, 0]
        sol = solve_forward(outer, inner, bc, f, g)
        for name, ref in frozen_solve_forward(outer, inner, bc, f, g).items():
            got = getattr(sol, name)
            assert_same_bits(got() if callable(got) else got, ref, name)

    @pytest.mark.parametrize("case", [c for c in KERNEL_CASES if c[2] != "points"],
                             ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_kernel_peak_is_at_most_five_and_a_half_matrices(self, case):
        n = 256
        ops = kernel_operands(unit_mesh(n), NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), n))
        kernel, source, target = KERNELS[case[0]][0], ops[case[1]], ops[case[2]]
        assert traced_peak(lambda: kernel(source, target)) <= 5.5 * n * n * 8

    @pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
    def test_forward_matrix_peak_is_at_most_six_and_a_half_matrices(self, bc):
        n = 256
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), n)
        g = impedance_with_zeros(inner) if bc == "impedance" else None
        assert traced_peak(lambda: bie._forward_matrix(inner, g)) <= 6.5 * n * n * 8


class TestNoThreads:
    """The forward solve splits no step by rows: on two CPUs it starts no
    thread, and every solve writes the bits of the frozen solve."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("curve", [BoundaryCurve.ellipse(0.5, 0.3), BoundaryCurve.cardioid()],
                             ids=["ellipse", "cardioid"])
    def test_forward_keeps_the_bits_in_every_run(self, row_blocks, curve, n):
        outer, inner = unit_mesh(n), NystromMesh(curve, n)
        g = impedance_with_zeros(inner)
        f = np.cos(np.outer(outer.theta, np.arange(5)) + 0.2)
        want = frozen_solve_forward(outer, inner, "impedance", f, g)
        for run in range(20):
            sol = solve_forward(outer, inner, "impedance", f, g)
            for name, ref in want.items():
                got = getattr(sol, name)
                assert_same_bits(got() if callable(got) else got, ref, (run, name))
        assert row_blocks == []

    def test_readme_forward_starts_no_thread(self, no_row_threads):
        outer = unit_mesh(64)
        lam = dtn_matrix(outer, inner_circle(32, 0.5), "dirichlet").matrix
        assert lam.shape == (64, 64)
        sol = solve_forward(outer, NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32),
                            "impedance", np.cos(outer.theta), np.full(32, 2.0))
        assert sol.inner_flux().shape == (32,)

    def test_many_nodes_forward_starts_no_thread(self, no_row_threads):
        outer, inner = unit_mesh(256), NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 256)
        lam = dtn_matrix(outer, inner, "impedance", impedance_with_zeros(inner),
                         basis="fourier", modes=np.arange(-19, 20)).matrix
        assert lam.shape == (39, 39)


def disk_green(x, y):
    """The unit disk's Dirichlet Green's function, entry by entry."""
    d = x[:, None, :] - y[None, :, :]
    r2 = (d**2).sum(axis=2)
    q = (np.outer((x**2).sum(axis=1), (y**2).sum(axis=1)) - 2.0 * x @ y.T + 1.0)
    return (np.log(q) - np.log(r2)) / (4.0 * np.pi)


class TestGreensFunction:
    """The image parts against the closed form and its derivatives."""

    @pytest.mark.parametrize("curve", INCLUSIONS.values(), ids=INCLUSIONS.keys())
    def test_layers_vanish_on_the_unit_circle(self, curve):
        inner = NystromMesh(curve, 64)
        circle = unit_mesh(48).points
        for free, of in ((single_layer, "single_layer"),
                         (modified_double_layer, "double_layer")):
            green = free(inner, circle) + bie._image(inner, circle, of)
            assert np.abs(green).max() < 1e-14, of

    def test_single_layer_entries(self):
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        pts = kernel_operands(unit_mesh(16), inner)["points"]
        green = single_layer(inner, pts) + bie._image(inner, pts, "single_layer")
        want = disk_green(pts, inner.points) * inner.arc_weights()
        assert np.abs(green - want).max() < 1e-14

    @pytest.mark.parametrize("of", ["single_layer", "double_layer"])
    def test_derivatives_match_central_differences(self, of):
        # dH/dnu(x), 2 dH/dnu(y) and 2 d2H/dnu(x)dnu(y) by central differences
        # of the closed form along the normals, step h, error O(h^2)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 24)
        x, nu, w, h = inner.points, inner.normals, inner.arc_weights(), 1e-4

        def image(a, b):
            q = np.outer((a**2).sum(axis=1), (b**2).sum(axis=1)) - 2.0 * a @ b.T + 1.0
            return np.log(q) / (4.0 * np.pi)

        def along_y(a):
            return (image(a, x + h * nu) - image(a, x - h * nu)) / (2 * h)

        if of == "single_layer":
            want = (image(x + h * nu, x) - image(x - h * nu, x)) / (2 * h) * w
        else:
            want = 2 * (along_y(x + h * nu) - along_y(x - h * nu)) / (2 * h) * w
            layer = 2 * along_y(x) * w
            assert np.abs(bie._image(inner, inner, of) - layer).max() < 1e-7
        assert np.abs(bie._image(inner, inner, of.replace("layer", "flux")) - want).max() < 1e-6


class TestGreenForward:
    """The solve against the boundary equations the test assembles itself:
    the closed-form image part entry by entry, ``P[f]`` of trigonometric
    voltages as ``Re(z^k)``, and the current through the Poisson kernel."""

    @pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
    @pytest.mark.parametrize("curve", [BoundaryCurve.ellipse(0.5, 0.3), BoundaryCurve.cardioid()],
                             ids=["ellipse", "cardioid"])
    def test_density_and_current_match_a_dense_solve(self, curve, bc):
        outer, inner = unit_mesh(64), NystromMesh(curve, 48)
        x, w = inner.points, inner.arc_weights()
        z = x[:, 0] + 1j * x[:, 1]
        nu = inner.normals[:, 0] + 1j * inner.normals[:, 1]
        k = np.arange(5)
        f = np.cos(np.outer(outer.theta, k)) + 0.3
        ext = np.real(z[:, None] ** k) + 0.3
        dext = np.real(k * z[:, None] ** np.maximum(k - 1, 0) * nu[:, None])
        xx = (x**2).sum(axis=1)
        q = np.outer(xx, xx) - 2.0 * x @ x.T + 1.0
        s_g = single_layer(inner, inner) + np.log(q) / (4 * np.pi) * w
        if bc == "dirichlet":
            gamma, block, rhs = None, s_g, -ext
        else:
            gamma = 2.0 - np.sin(inner.theta) ** 4
            # dH/dnu(x) = (|y|^2 x . nu(x) - y . nu(x)) / (2 pi q)
            xn = np.einsum("ik,ik->i", x, inner.normals)
            dh = (np.outer(xn, xx) - inner.normals @ x.T) / (2 * np.pi * q) * w
            kp = normal_derivative(inner, inner, of="single_layer") + dh
            block = 0.5 * np.eye(48) - kp + gamma[:, None] * s_g
            rhs = dext - gamma[:, None] * ext
        phi = la.solve(block, rhs)
        sol = solve_forward(outer, inner, bc, f, gamma)
        assert np.abs(sol.phi - phi).max() < 1e-10 * np.abs(phi).max()
        d = outer.points[:, None, :] - x[None, :, :]
        poisson = (1.0 - xx) / (2 * np.pi * (d**2).sum(axis=2))
        current = k * (f - 0.3) - poisson @ (w[:, None] * phi)
        assert np.abs(sol.outer_flux() - current).max() < 1e-9 * np.abs(current).max()


class TestHarmonicExtension:
    """``P[f]`` and its normal derivative of every resolved mode, the Nyquist
    mode as a cosine, against ``Re(z^k)``, ``Im(z^k)`` and their derivatives."""

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_modes_extend_to_powers(self, n):
        mesh = NystromMesh(BoundaryCurve.ellipse(0.6, 0.45), 40)
        z = mesh.points[:, 0] + 1j * mesh.points[:, 1]
        nu = mesh.normals[:, 0] + 1j * mesh.normals[:, 1]
        t = 2 * np.pi * np.arange(n) / n
        ext = bie._harmonic_extension(n, mesh.points, None)
        dext = bie._harmonic_extension(n, mesh.points, mesh.normals)
        for k in range(n // 2 + 1):
            kinds = [(np.cos, np.real)] + ([(np.sin, np.imag)] if 0 < k < n // 2 else [])
            for fn, part in kinds:
                f = fn(k * t)
                assert np.abs(ext @ f - part(z**k)).max() < 1e-13, (k, fn)
                assert np.abs(dext @ f - part(k * z ** max(k - 1, 0) * nu)).max() < 1e-13 * max(k, 1)


class TestForwardSolver:
    def test_dirichlet_first_mode(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        f = np.cos(outer.theta)
        flux = solve_forward(outer, inner, "dirichlet", f).outer_flux()
        want = (5.0 / 3.0) * f
        assert np.max(np.abs(flux - want)) < 1e-8

    def test_dirichlet_constant(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        flux = solve_forward(outer, inner, "dirichlet", np.ones(64)).outer_flux()
        assert np.max(np.abs(flux - 1.0 / np.log(2.0))) < 1e-10
        assert abs(1.0 / np.log(2.0) - 1.4426950408889634) < 1e-15

    def test_impedance_invisible_mode(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        f = np.cos(outer.theta)
        sol = solve_forward(outer, inner, "impedance", f, np.full(64, 2.0))
        assert np.max(np.abs(sol.outer_flux() - f)) < 1e-8

    def test_oracle_equivalence_grid(self):
        # concentric circles, both conditions, k <= 8: relative node error
        # against the series below 1e-6 at 64 nodes
        outer = unit_mesh(64)
        for rho in (0.25, 0.5):
            inner = inner_circle(64, rho)
            for bc, gamma in (("dirichlet", None), ("impedance", 0.5),
                              ("impedance", 2.0)):
                cfg = AnnulusConfig(rho, bc, gamma)
                gv = None if gamma is None else np.full(64, gamma)
                for k in range(1, 9):
                    for f in (np.cos(k * outer.theta), np.sin(k * outer.theta)):
                        flux = solve_forward(outer, inner, bc, f, gv).outer_flux()
                        want = (k - gap_coefficient(cfg, k)) * f
                        err = (np.linalg.norm(flux - want)
                               / np.linalg.norm(want))
                        assert err < 1e-6, (rho, bc, gamma, k)

    def test_interior_potential_against_series(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        k, gamma = 3, 2.0
        sol = solve_forward(outer, inner, "impedance", np.cos(k * outer.theta),
                            np.full(64, gamma))
        pts = np.array([[0.7, 0.1], [0.0, 0.8], [-0.6, -0.2]])
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.arctan2(pts[:, 1], pts[:, 0])
        s = (k - 0.5 * gamma) / (k + 0.5 * gamma)
        want = ((r**k + s * 0.5 ** (2 * k) * r ** (-k)) / (1 + s * 0.5 ** (2 * k))
                * np.cos(k * t))
        assert np.max(np.abs(sol.potential(pts) - want)) < 1e-9

    def test_inner_trace_against_series(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        k = 2
        sol = solve_forward(outer, inner, "impedance", np.cos(k * outer.theta),
                            np.full(64, 2.0))
        want = inner_trace_coefficient(cfg, k) * np.cos(k * inner.theta)
        assert np.max(np.abs(sol.inner_trace() - want)) < 1e-9

    def test_inner_flux_satisfies_robin(self):
        outer = unit_mesh()
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        sol = solve_forward(outer, inner, "impedance", np.cos(2 * outer.theta),
                            gamma)
        residual = sol.inner_flux() + gamma * sol.inner_trace()
        assert np.max(np.abs(residual)) < 1e-8

    def test_exponential_convergence(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        want_coef = 2.0 - gap_coefficient(cfg, 2)
        errors = []
        # the error reaches rounding (about 4e-15) from 24 nodes on
        for n in (8, 12, 16):
            outer = unit_mesh(n)
            inner = inner_circle(n, 0.5)
            f = np.cos(2 * outer.theta)
            flux = solve_forward(outer, inner, "dirichlet", f).outer_flux()
            errors.append(np.max(np.abs(flux - want_coef * f)))
        assert errors[0] / max(errors[1], 1e-16) > 1e2
        assert errors[1] / max(errors[2], 1e-16) > 1e2


    def test_voltage_columns_match_single_solves(self):
        outer = unit_mesh()
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 48)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        f = np.column_stack([np.cos(k * outer.theta) for k in range(1, 6)]
                            + [np.sin(k * outer.theta) for k in range(1, 6)])
        sol = solve_forward(outer, inner, "impedance", f, gamma)
        assert sol.voltage.shape == (64, 10) and sol.phi.shape == (48, 10)
        flux, trace = sol.outer_flux(), sol.inner_trace()
        for j in range(f.shape[1]):
            one = solve_forward(outer, inner, "impedance", f[:, j], gamma)
            assert np.max(np.abs(flux[:, j] - one.outer_flux())) < 1e-12
            assert np.max(np.abs(trace[:, j] - one.inner_trace())) < 1e-12

    @pytest.mark.parametrize("point", [[1.0, 0.0], [0.6, 0.8], [0.9, 0.5]])
    def test_potential_outside_the_disk_rejected(self, point):
        outer, inner = unit_mesh(), inner_circle(32, 0.5)
        sol = solve_forward(outer, inner, "dirichlet", np.cos(outer.theta))
        with pytest.raises(ValueError, match="strictly inside the unit measurement circle"):
            sol.potential([[0.0, 0.7], point])

    # (rho, bound) for the 64/64 collocation gap of concentric circles: the
    # largest entry error over the largest entry, against the order-31 series
    @pytest.mark.parametrize("rho, bound", [(0.5, 1e-12), (0.8, 2e-5), (0.9, 5e-3)])
    @pytest.mark.parametrize("bc, gamma", [("dirichlet", None), ("impedance", 0.1),
                                           ("impedance", 2.0)])
    def test_gap_near_the_circle_against_series(self, rho, bound, bc, gamma):
        outer, inner = unit_mesh(64), inner_circle(64, rho)
        gvals = None if gamma is None else np.full(64, gamma)
        gap = gap_from_lambda0(dtn_matrix(outer, inner, bc, gvals)).matrix
        want = gap_operator(AnnulusConfig(rho, bc, gamma, order=31), "collocation", 64).matrix
        assert np.abs(gap - want).max() <= bound * np.abs(want).max()

    def test_voltage_shape_rejected(self):
        outer, inner = unit_mesh(), inner_circle(32, 0.5)
        with pytest.raises(ValueError, match="voltage"):
            solve_forward(outer, inner, "dirichlet", np.ones((32, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_gamma_rejected(self, bad):
        outer, inner = unit_mesh(), inner_circle(32, 0.5)
        gamma = np.full(32, 2.0)
        gamma[5] = bad
        with pytest.raises(ValueError, match="gamma"):
            solve_forward(outer, inner, "impedance", np.cos(outer.theta), gamma)

    @pytest.mark.parametrize("curve", [BoundaryCurve.circle(radius=1.0),
                                       BoundaryCurve.ellipse(1.2, 0.3)])
    def test_inclusion_reaching_unit_circle_rejected(self, curve):
        outer, inner = unit_mesh(), NystromMesh(curve, 32)
        with pytest.raises(ValueError, match="inside the unit measurement circle"):
            solve_forward(outer, inner, "dirichlet", np.cos(outer.theta))


class TestFactorization:
    @staticmethod
    def readme_matrix():
        # the forward matrix S_G of the README example: 64 outer, 32 inner
        # nodes, so the factorized block is inclusion-sized
        return bie._forward_matrix(inner_circle(32, 0.5), None)

    def test_condition_estimate_brackets_two_norm_condition(self):
        a = self.readme_matrix()
        assert a.shape == (32, 32)
        _, estimate = bie._factorize(a, "forward", bie._COND_LIMIT)
        k2 = np.linalg.cond(a)
        n = a.shape[0]
        assert k2 / n <= estimate <= n * k2

    @pytest.mark.parametrize("damage", ["repeat_row", "nan_entry"])
    def test_singular_block_raises_with_condition(self, monkeypatch, damage):
        real = bie._forward_matrix

        def damaged(*args):
            mat = real(*args)
            if damage == "repeat_row":
                mat[3] = mat[7]
            else:
                mat[3, 7] = np.nan
            return mat

        monkeypatch.setattr(bie, "_forward_matrix", damaged)
        outer = unit_mesh(64)
        with pytest.raises(SingularSystem) as info:
            solve_forward(outer, inner_circle(32, 0.5), "dirichlet", np.cos(outer.theta))
        assert not info.value.condition <= bie._COND_LIMIT

    def test_warnings_filter_is_safe_on_two_threads(self):
        # one thread factorizes an exactly singular block, whose zero pivot
        # lu_factor reports with a LinAlgWarning, while another factorizes a
        # regular one; the interpreter switches threads every microsecond so
        # that the two filter blocks interleave
        rng = np.random.default_rng(5)
        regular = 4.0 * np.eye(64) + rng.standard_normal((64, 64)) / 8
        outcomes = []

        def factorize(a):
            for _ in range(50):
                try:
                    bie._factorize(a, "forward", bie._COND_LIMIT)
                except SingularSystem:
                    outcomes.append("singular")
                else:
                    outcomes.append("factored")

        interval = sys.getswitchinterval()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            threads = [threading.Thread(target=factorize, args=(a,))
                       for a in (np.ones((64, 64)), regular)]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            after = list(warnings.filters)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes.count("singular") == outcomes.count("factored") == 50
        assert after == before
        assert [w for w in caught if issubclass(w.category, la.LinAlgWarning)] == []

    def test_fourier_basis_factorizes_once(self, lu_factor_calls):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        dtn_matrix(outer, inner, "dirichlet", basis="fourier", modes=np.arange(-10, 11))
        assert lu_factor_calls == [(32, 32)]


def frozen_trig_resample(values, new_theta):
    """:func:`bie.trig_resample` as one block: the whole ``exp`` matrix at once."""
    n = len(values)
    c = np.fft.fft(values, axis=0) / n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    return np.exp(1j * np.outer(new_theta, m)) @ c


class TestTrigResample:
    """Target angles in blocks of 64 rows: the bits of one block, in a sixth
    of its memory."""

    @pytest.mark.parametrize("targets", [39, 64, 512, 1000])
    @pytest.mark.parametrize("shape", [(256,), (256, 16), (33, 5)],
                             ids=["1-D", "2-D", "odd-n"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_keep_the_bits_of_one_block(self, targets, shape, dtype):
        rng = np.random.default_rng(targets)
        values = rng.standard_normal(shape)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(shape)
        for theta in (2 * np.pi * np.arange(targets) / targets,
                      rng.uniform(-1.0, 7.0, targets)):
            got = bie.trig_resample(values, theta)
            want = frozen_trig_resample(values, theta)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_beyond_the_result_stays_under_one_mib(self):
        # the many-nodes impedance stage: 16 pairs on 256 nodes, at 512 angles
        values = np.random.default_rng(3).standard_normal((256, 16))
        theta = 2 * np.pi * np.arange(512) / 512
        result = 512 * 16 * np.dtype(complex).itemsize
        assert traced_peak(lambda: bie.trig_resample(values, theta)) - result < 2 ** 20


class TestDtnMatrix:
    def test_fourier_diagonal_against_series(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        cfg = AnnulusConfig(0.5, "dirichlet")
        lam = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                         modes=np.arange(-10, 11))
        gap = gap_from_lambda0(lam)
        for i, m in enumerate(gap.modes):
            assert abs(gap.matrix[i, i] - gap_coefficient(cfg, m)) < 1e-7
            off = np.abs(np.delete(gap.matrix[:, i], i)).max()
            assert off < 1e-7

    def test_collocation_matches_fourier_spectrally(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        lam_c = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap_c = gap_from_lambda0(lam_c)
        cfg = AnnulusConfig(0.5, "dirichlet", order=31)
        want = sorted([abs(gap_coefficient(cfg, 0))]
                      + [abs(gap_coefficient(cfg, m)) for m in range(1, 32)
                         for _ in (0, 1)], reverse=True)
        got = np.linalg.svd(gap_c.matrix, compute_uv=False)
        assert np.max(np.abs(got[:20] - np.array(want)[:20])) < 1e-6

    def test_ellipse_gap_sees_constant(self):
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        lam = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap = gap_from_lambda0(lam)
        assert np.linalg.norm(gap.matrix @ np.ones(64)) > 1e-2

    @pytest.mark.parametrize("basis", ["collocation", "fourier"])
    @pytest.mark.parametrize("bc, formed", [("dirichlet", 1), ("impedance", 2)])
    def test_solve_forms_the_harmonic_extension_once(self, monkeypatch, basis, bc, formed):
        # the solve keeps P, and dP/dnu for impedance, for the currents and traces
        calls = []
        extension = bie._harmonic_extension
        monkeypatch.setattr(bie, "_harmonic_extension",
                            lambda *args: calls.append(args) or extension(*args))
        outer, inner = unit_mesh(64), NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        gamma = np.full(32, 2.0) if bc == "impedance" else None
        dtn_matrix(outer, inner, bc, gamma, basis=basis, modes=np.arange(-5, 6))
        assert len(calls) == formed
        if bc == "impedance":
            sol = bie.solve_forward(outer, inner, bc, np.eye(64), gamma)
            sol.inner_trace()
            sol.inner_flux()
            assert len(calls) == 2 * formed

    def test_fourier_needs_a_mode_list(self):
        with pytest.raises(ValueError, match="mode list"):
            dtn_matrix(unit_mesh(64), inner_circle(32, 0.5), "dirichlet", basis="fourier")

    def test_under_resolved_fourier_raises(self):
        outer, inner = unit_mesh(32), inner_circle(32, 0.5)
        with pytest.raises(ValueError):
            dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(0, 20))

    # scale None is a Dirichlet inclusion, otherwise gamma = scale (2 - sin^4);
    # the truncated gap is symmetric once the response above the top mode
    # has decayed, which 19 modes reach on these ellipses
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.2, 0.5), b=st.floats(0.2, 0.5),
           scale=st.none() | st.floats(0.5, 4.0), order=st.integers(19, 31))
    @example(a=0.5, b=0.3, scale=1.0, order=19)
    def test_gap_symmetry_real_trig_basis(self, a, b, scale, order):
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(a, b), 64)
        if scale is None:
            bc, gamma = "dirichlet", None
        else:
            bc, gamma = "impedance", scale * (2.0 - np.sin(inner.theta) ** 4)
        lam = dtn_matrix(outer, inner, bc, gamma, basis="fourier",
                         modes=np.arange(-order, order + 1))
        gap = gap_from_lambda0(lam)
        real, imag = to_real_trig_basis(gap)
        asym = np.linalg.norm(real - real.T, 2) / np.linalg.norm(real, 2)
        assert asym < 1e-6
        assert np.max(np.abs(imag)) < 1e-6 * np.linalg.norm(real, 2)

    def test_singular_value_geometric_decay(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        lam = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap = gap_from_lambda0(lam)
        s = np.linalg.svd(gap.matrix, compute_uv=False)
        s = s[s > s[0] * 1e-10]
        rho2 = 0.25
        for k in range(1, len(s) - 2):
            ratio = s[k + 2] / s[k]
            assert rho2 / 3 < ratio < rho2 * 3

    @pytest.mark.parametrize("modes", [np.arange(-5, 6), np.arange(0, 8)],
                             ids=["symmetric", "one-sided"])
    def test_fourier_flux_noise_matches_the_per_mode_reference(self, modes):
        # mode j's cos and sin currents take the noise draws (seed, 2j) and
        # (seed, 2j + 1), are resampled at len(modes) nodes and transformed
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        delta, seed = 0.04, 11
        n_eval = len(modes)
        theta_eval = 2 * np.pi * np.arange(n_eval) / n_eval
        dft = np.exp(-1j * np.outer(modes, theta_eval)) / n_eval
        want = np.zeros((n_eval, n_eval), dtype=complex)
        for j, m in enumerate(modes):
            drive = np.column_stack([np.cos(abs(m) * outer.theta), np.sin(abs(m) * outer.theta)])
            flux = solve_forward(outer, inner, "dirichlet", drive).outer_flux()
            re = perturb_vector(flux[:, 0], delta, (seed, 2 * j))
            im = perturb_vector(np.sign(m) * flux[:, 1], delta, (seed, 2 * j + 1))
            want[:, j] = dft @ (bie.trig_resample(re, theta_eval)
                                + 1j * bie.trig_resample(im, theta_eval))
        got = dtn_matrix(outer, inner, "dirichlet", basis="fourier", modes=modes,
                         flux_noise=(delta, seed)).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_flux_noise_determinism(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        a = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(-5, 6), flux_noise=(0.04, 7))
        b = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(-5, 6), flux_noise=(0.04, 7))
        assert np.array_equal(a.matrix, b.matrix)

    @settings(max_examples=10, deadline=None)
    @given(offset=st.floats(0.05, 0.4), angle=st.floats(0.0, 2 * np.pi),
           radius=st.floats(0.1, 0.35), k=st.integers(1, 31),
           bc=st.sampled_from(["dirichlet", "impedance"]))
    def test_rotating_the_inclusion_rolls_the_collocation_map(self, offset, angle,
                                                              radius, k, bc):
        # a rotation by 2 pi k / n maps the nodes of both circles onto
        # themselves, shifted by k, so the node-value map is rolled by k
        n = 32
        outer = unit_mesh(n)

        def lam(phi):
            center = (offset * np.cos(phi), offset * np.sin(phi))
            inner = NystromMesh(BoundaryCurve.circle(center, radius), n)
            gamma = np.full(n, 2.0) if bc == "impedance" else None
            return dtn_matrix(outer, inner, bc, gamma).matrix

        base = lam(angle)
        rotated = lam(angle + 2 * np.pi * k / n)
        rolled = np.roll(base, (k, k), axis=(0, 1))
        assert np.max(np.abs(rotated - rolled)) <= 1e-12 * np.max(np.abs(base))
