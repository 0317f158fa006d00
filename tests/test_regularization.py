import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitdisk import regularization
from eitdisk.annulus import AnnulusConfig, gap_operator
from eitdisk.bie import NystromMesh
from eitdisk.completion import assemble_completion
from eitdisk.exceptions import AllModesCutWarning, NoiseDominates, SingularSystem
from eitdisk.geometry import BoundaryCurve
from eitdisk.regularization import (RegStrategy, SvdFactorization,
                                    discrepancy_alpha, expected_noise_norm,
                                    perturb_matrix, perturb_vector,
                                    regularized_solve, spectral_filter,
                                    tikhonov_solve)


def random_system(n=8, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.normal(size=(n, n))
    b = rng.normal(size=n)
    return a, b


class TestSvd:
    def test_reconstruction(self):
        a, _ = random_system(12, 3)
        svd = SvdFactorization.from_matrix(a)
        err = np.linalg.norm((svd.u * svd.s) @ svd.vh - a, 2) / np.linalg.norm(a, 2)
        assert err < 1e-12

    def test_ordering(self):
        a, _ = random_system(12, 4)
        svd = SvdFactorization.from_matrix(a)
        assert np.all(np.diff(svd.s) <= 0) and svd.s[-1] >= 0


def low_rank(n, rank, seed, dtype=float):
    """``(n, n)`` matrix of numerical rank ``rank``, singular values 1 .. 0.1."""
    rng = np.random.Generator(np.random.Philox(seed))

    def orthonormal():
        q = rng.normal(size=(n, rank))
        if dtype is complex:
            q = q + 1j * rng.normal(size=(n, rank))
        return np.linalg.qr(q)[0]

    return (orthonormal() * np.geomspace(1.0, 0.1, rank)) @ orthonormal().conj().T


@pytest.fixture(scope="module", params=[256, 512])
def completion_operator(request):
    """The completion operator from the unit circle to the ellipse 0.5 x 0.3,
    both on ``n`` nodes, with its factorization."""
    n = request.param
    system = assemble_completion(NystromMesh(BoundaryCurve.circle(radius=1.0), n),
                                 NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), n))
    return system.completion, system.svd


def svd_bits(svd):
    return tuple(x.tobytes() for x in (svd.u, svd.s, svd.vh))


def assert_truncated_at_rounding(a, svd):
    """The factorization contract: a residual at rounding of ``s_1``, and the
    kept values those of the full SVD to that tolerance."""
    tol = max(a.shape) * np.finfo(float).eps * svd.s[0]
    full = np.linalg.svd(a, compute_uv=False)
    assert len(svd.s) < min(a.shape)
    assert np.linalg.norm(a - (svd.u * svd.s) @ svd.vh) <= tol
    assert np.max(np.abs(svd.s - full[:len(svd.s)])) <= tol
    assert np.allclose(svd.u.conj().T @ svd.u, np.eye(len(svd.s)), rtol=0, atol=1e-13)
    assert np.allclose(svd.vh @ svd.vh.conj().T, np.eye(len(svd.s)), rtol=0, atol=1e-13)


class TestTruncatedSvd:
    def test_completion_operator_drops_only_rounding(self, completion_operator):
        assert_truncated_at_rounding(*completion_operator)

    def test_complex_low_rank_matrix_has_the_same_contract(self):
        a = low_rank(256, 40, 1, complex)
        svd = SvdFactorization.from_matrix(a)
        assert svd.u.dtype == complex and svd.vh.dtype == complex
        assert_truncated_at_rounding(a, svd)

    @pytest.mark.parametrize("make", [
        lambda: low_rank(255, 20, 2),
        lambda: low_rank(300, 20, 3)[:, :255],
        lambda: perturb_matrix(gap_operator(AnnulusConfig(0.5, "dirichlet"),
                                            basis="collocation", n=64).matrix, 0.05, 3),
        lambda: np.random.Generator(np.random.Philox(4)).normal(size=(512, 512)),
    ], ids=["below-floor", "short-side-below-floor", "perturbed-gap-64", "full-rank-512"])
    def test_full_svd_bits_below_the_floor_and_at_full_rank(self, make):
        a = make()
        svd = SvdFactorization.from_matrix(a)
        assert svd_bits(svd) == tuple(x.tobytes() for x in np.linalg.svd(a, full_matrices=False))

    def test_same_bits_on_every_call_and_thread(self, completion_operator):
        a, svd = completion_operator
        with ThreadPoolExecutor(1) as pool:
            threaded = pool.submit(SvdFactorization.from_matrix, a).result()
        assert svd_bits(SvdFactorization.from_matrix(a)) == svd_bits(svd)
        assert svd_bits(threaded) == svd_bits(svd)


class TestTikhonov:
    def test_identity_matrix_halves(self):
        svd = SvdFactorization.from_matrix(np.eye(5))
        b = np.arange(1.0, 6.0)
        assert np.allclose(tikhonov_solve(svd, b, 1.0), b / 2)

    def test_small_alpha_recovers_inverse(self):
        a, b = random_system(6, 5)
        svd = SvdFactorization.from_matrix(a)
        x = tikhonov_solve(svd, b, 1e-13)
        assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-8

    def test_matches_normal_equations(self):
        a, b = random_system(8, 6)
        svd = SvdFactorization.from_matrix(a)
        alpha = 1e-3
        x = tikhonov_solve(svd, b, alpha)
        x_ne = np.linalg.solve(alpha * np.eye(8) + a.T @ a, a.T @ b)
        assert np.linalg.norm(x - x_ne) / np.linalg.norm(x_ne) < 1e-10

    def test_filter_factor_bound(self):
        # s/(alpha + s^2) peaks at s = sqrt(alpha) with value 1/(2 sqrt(alpha))
        a, _ = random_system(20, 7)
        svd = SvdFactorization.from_matrix(a)
        for alpha in (1e-6, 1e-3, 1.0):
            factors = svd.s / (alpha + svd.s**2)
            assert np.all(factors <= 1.0 / (2 * np.sqrt(alpha)) + 1e-15)


class TestDiscrepancy:
    def test_identity_closed_form(self):
        # residual for A = I is alpha/(1+alpha) |b|; target |b|/2 gives alpha=1
        svd = SvdFactorization.from_matrix(np.eye(6))
        b = np.full(6, 1 / np.sqrt(6.0))
        alpha = discrepancy_alpha(svd, b, 0.5, safety=1.0)
        assert abs(alpha - 1.0) < 1e-9

    def test_residual_hits_target(self):
        a, b = random_system(10, 8)
        svd = SvdFactorization.from_matrix(a)
        target = 0.3 * np.linalg.norm(b)
        alpha = discrepancy_alpha(svd, b, target, safety=1.0)
        res = np.linalg.norm(a @ tikhonov_solve(svd, b, alpha) - b)
        assert abs(res - target) / target < 1e-8

    def test_alpha_decreases_with_target(self):
        a, b = random_system(10, 9)
        svd = SvdFactorization.from_matrix(a)
        targets = np.linalg.norm(b) * np.array([0.5, 0.2, 0.05, 0.01])
        alphas = [discrepancy_alpha(svd, b, t, safety=1.0) for t in targets]
        assert np.all(np.diff(alphas) < 0)

    def test_monotone_residual(self):
        a, b = random_system(10, 10)
        svd = SvdFactorization.from_matrix(a)
        res = [np.linalg.norm(a @ tikhonov_solve(svd, b, al) - b)
               for al in np.logspace(-8, 2, 30)]
        assert np.all(np.diff(res) >= -1e-12)

    def test_noise_dominates(self):
        svd = SvdFactorization.from_matrix(np.eye(4))
        with pytest.raises(NoiseDominates):
            discrepancy_alpha(svd, np.ones(4), 10.0, safety=1.0)


class TestCutoff:
    def test_full_rank_exact_solve(self):
        a, b = random_system(7, 11)
        svd = SvdFactorization.from_matrix(a)
        x = regularized_solve(svd, b, RegStrategy.spectral_cutoff(1e-12))[0]
        assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-10

    def test_rank_one(self):
        a, b = random_system(7, 12)
        svd = SvdFactorization.from_matrix(a)
        x = regularized_solve(svd, b, RegStrategy.spectral_cutoff(0.999999))[0]
        want = svd.vh[0].conj() * (svd.u[:, 0].conj() @ b) / svd.s[0]
        assert np.allclose(x, want)

    def test_diagonal_example(self):
        svd = SvdFactorization.from_matrix(np.diag([1.0, 1e-5]))
        x = regularized_solve(svd, np.array([1.0, 1.0]), RegStrategy.spectral_cutoff(1e-4))[0]
        assert np.allclose(x, [1.0, 0.0])

    def test_all_modes_cut_warns_and_zeroes(self):
        svd = SvdFactorization.from_matrix(np.eye(3))
        with pytest.warns(AllModesCutWarning):
            x, _ = regularized_solve(svd, np.ones(3), RegStrategy("cutoff", safety=1.0),
                                     delta_abs=10.0)
        assert np.all(x == 0)

    def test_agrees_with_tikhonov_in_the_limit(self):
        a, b = random_system(6, 13)
        svd = SvdFactorization.from_matrix(a)
        x_c = regularized_solve(svd, b, RegStrategy.spectral_cutoff(1e-13))[0]
        x_t = tikhonov_solve(svd, b, 1e-14)
        assert np.linalg.norm(x_c - x_t) / np.linalg.norm(x_c) < 1e-8


class TestRegularizedSolve:
    def test_none_on_singular_raises(self):
        a = np.diag([1.0, 0.0])
        svd = SvdFactorization.from_matrix(a)
        with pytest.raises(SingularSystem):
            regularized_solve(svd, np.ones(2), RegStrategy.none())

    def test_none_on_truncated_factorization_raises(self):
        # every kept value is at least 0.1 s_1, so only the truncation is singular
        svd = SvdFactorization.from_matrix(low_rank(256, 32, 5))
        assert len(svd.s) < 256 and svd.s[-1] > 0.09 * svd.s[0]
        with pytest.raises(SingularSystem):
            regularized_solve(svd, np.ones(256), RegStrategy.none())

    def test_range_of_truncated_factorization_has_zero_residual(self):
        a = low_rank(256, 32, 6)
        svd = SvdFactorization.from_matrix(a)
        b = a @ np.random.Generator(np.random.Philox(7)).normal(size=(256, 8))
        _, info = regularized_solve(svd, b, RegStrategy.spectral_cutoff(1e-3))
        assert len(svd.s) < 256 and np.all(info["rank"] == len(svd.s))
        assert np.all(info["residual"] == 0)

    def test_orthogonal_part_floor_scales_with_the_rows_of_b(self):
        # |b|^2 - |U^H b|^2 of 100 eps |b|^2 is rounding of a sum over 256
        # rows, though the factorization kept only 32 values
        svd = SvdFactorization(np.eye(256, 32), np.geomspace(1.0, 0.1, 32), np.eye(32, 256))
        beta2 = np.full((32, 1), 1.0 / 32)
        b2 = np.array([1.0 + 100 * np.finfo(float).eps])
        assert regularization._orthogonal_part(svd, beta2, b2)[0] == 0

    def test_dispatch_matches_direct_calls(self):
        a, b = random_system(9, 14)
        svd = SvdFactorization.from_matrix(a)
        x, info = regularized_solve(svd, b, RegStrategy.tikhonov(1e-2))
        assert np.allclose(x, tikhonov_solve(svd, b, 1e-2))
        assert info["alpha"] == 1e-2
        x, info = regularized_solve(svd, b, RegStrategy.spectral_cutoff(0.5))
        keep = svd.s >= 0.5 * svd.s[0]
        want = svd.vh[keep].conj().T @ ((svd.u[:, keep].conj().T @ b) / svd.s[keep])
        assert np.allclose(x, want)
        assert info["rank"] == keep.sum()


    @pytest.mark.parametrize("reg, tied", [
        (RegStrategy.none(), False),
        (RegStrategy.tikhonov(1e-6), False),
        (RegStrategy.tikhonov_discrepancy(0.05), True),
        (RegStrategy.spectral_cutoff(1e-3), False),
        (RegStrategy.cutoff_by_noise(0.05), True),
    ], ids=["none", "tikhonov", "discrepancy", "cutoff", "cutoff_by_noise"])
    def test_noise_tied_marks_the_noise_level_strategies(self, reg, tied):
        assert reg.noise_tied is tied

    @pytest.mark.parametrize("make", [RegStrategy.tikhonov_discrepancy,
                                      RegStrategy.cutoff_by_noise])
    @pytest.mark.parametrize("level", [0.0, -0.01, np.nan, np.inf])
    def test_noise_tied_strategy_needs_a_positive_level(self, make, level):
        with pytest.raises(ValueError, match="positive noise level"):
            make(level)

    @pytest.mark.parametrize("make, value", [
        (RegStrategy.tikhonov, np.nan),
        (RegStrategy.tikhonov, np.inf),
        (RegStrategy.spectral_cutoff, np.nan),
        (lambda safety: RegStrategy.tikhonov_discrepancy(0.05, safety), np.nan),
        (lambda safety: RegStrategy.cutoff_by_noise(0.05, safety), np.nan),
        (lambda safety: RegStrategy.cutoff_by_noise(0.05, safety), np.inf),
        (lambda safety: RegStrategy.cutoff_by_noise(0.05, safety), 0.0),
        (lambda safety: RegStrategy.cutoff_by_noise(0.05, safety), 0.5),
    ])
    def test_constructors_reject_non_finite_values_and_safety_below_one(self, make, value):
        with pytest.raises(ValueError, match=f"not {value}"):
            make(value)


STRATEGIES = [
    RegStrategy.none(),
    RegStrategy.tikhonov(1e-3),
    RegStrategy.tikhonov_discrepancy(0.1),
    RegStrategy.spectral_cutoff(0.2),
    RegStrategy.cutoff_by_noise(0.05),
]


def decaying_system(n, p, seed, complex_rhs=False):
    """Matrix with singular values spread over six decades, and p columns."""
    rng = np.random.Generator(np.random.Philox(seed))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q1 * np.logspace(0, -6, n)) @ q2
    b = rng.normal(size=(n, p))
    if complex_rhs:
        b = b + 1j * rng.normal(size=(n, p))
    return a, b


class TestBatchedKernel:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(STRATEGIES),
           st.booleans())
    def test_columns_match_vector_solves(self, seed, p, reg, complex_rhs):
        a, b = decaying_system(9, p, seed, complex_rhs)
        svd = SvdFactorization.from_matrix(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllModesCutWarning)
            x, info = regularized_solve(svd, b, reg)
            for j in range(p):
                xj, info_j = regularized_solve(svd, b[:, j], reg)
                scale = max(1.0, np.linalg.norm(xj))
                assert np.linalg.norm(x[:, j] - xj) <= 1e-12 * scale
                for key, value in info_j.items():
                    assert abs(info[key][j] - value) <= 1e-12 * max(1.0, abs(value))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(STRATEGIES), st.booleans())
    def test_residual_is_attained_residual(self, seed, reg, complex_rhs):
        a, b = decaying_system(8, 4, seed, complex_rhs)
        svd = SvdFactorization.from_matrix(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllModesCutWarning)
            x, info = regularized_solve(svd, b, reg)
        direct = np.linalg.norm(a @ x - b, axis=0)
        # the direct product carries rounding of order eps |A| |x|
        tol = 1e-12 * (np.linalg.norm(b, axis=0) + svd.s[0] * np.linalg.norm(x, axis=0))
        assert np.all(np.abs(info["residual"] - direct) <= tol)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_discrepancy_residual_monotone_in_alpha(self, seed):
        a, b = decaying_system(10, 1, seed)
        svd = SvdFactorization.from_matrix(a)
        res = [regularized_solve(svd, b[:, 0], RegStrategy.tikhonov(al))[1]["residual"]
               for al in np.logspace(-14, 1, 40)]
        assert np.all(np.diff(res) >= -1e-14 * np.linalg.norm(b))

    def test_discrepancy_targets_per_column(self):
        a, b = decaying_system(10, 5, 3)
        svd = SvdFactorization.from_matrix(a)
        delta = np.linalg.norm(b, axis=0) * np.array([0.5, 0.2, 0.05, 0.01, 0.3])
        x, info = regularized_solve(svd, b, RegStrategy("tikhonov", safety=1.0),
                                    delta_abs=delta)
        assert np.allclose(info["residual"], delta, rtol=1e-8, atol=0)
        assert np.allclose(np.linalg.norm(a @ x - b, axis=0), delta, rtol=1e-8, atol=0)

    def test_cut_column_is_zero_with_one_warning(self):
        svd = SvdFactorization.from_matrix(np.diag([1.0, 0.1]))
        b = np.array([[1.0, 100.0], [1.0, 100.0]])
        with pytest.warns(AllModesCutWarning) as caught:
            x, info = regularized_solve(svd, b, RegStrategy("cutoff", safety=1.0),
                                        delta_abs=np.array([0.5, 5.0]))
        assert len(caught) == 1
        assert np.array_equal(info["rank"], [1, 0])
        assert np.allclose(x[:, 0], [1.0, 0.0]) and np.all(x[:, 1] == 0)

    def test_noise_dominated_column_raises(self):
        svd = SvdFactorization.from_matrix(np.eye(3))
        b = np.ones((3, 2))
        with pytest.raises(NoiseDominates, match=r"in 1 of 2 column") as caught:
            regularized_solve(svd, b, RegStrategy("tikhonov", safety=1.0),
                              delta_abs=np.array([0.1, 2.0]))
        assert (caught.value.columns, caught.value.total) == (1, 2)



def residual2(s, beta2, b2):
    """``alpha -> |A x_alpha - b|^2`` per column, formed as the kernel forms it."""
    b_perp2 = b2 - beta2.sum(axis=0)
    b_perp2 = np.where(b_perp2 > len(s) * np.finfo(float).eps * b2, b_perp2, 0.0)
    s2 = s[:, None] ** 2

    def res2(alpha):
        f = alpha / (s2 + alpha)
        return np.einsum("ij,ij->j", f * f, beta2) + b_perp2
    return res2


def bisection_alpha(s, beta2, b2, t2, steps=60):
    """Reference discrepancy alpha: bisection on ``log alpha`` per column.

    The bracket is ``[1e-14 s1^2, s1^2]``; a column whose target lies outside
    gets the nearer endpoint.  60 halvings of the 1e14-wide log bracket resolve
    each root to double rounding.
    """
    res2 = residual2(s, beta2, b2)
    lo = np.full(len(b2), 1e-14 * s[0] ** 2)
    hi = np.full(len(b2), s[0] ** 2)
    bracketed = (res2(lo) < t2) & (res2(hi) > t2)
    outside = np.where(res2(lo) >= t2, lo, hi)
    for _ in range(steps):
        mid = np.sqrt(lo * hi)
        below = res2(mid) < t2
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(bracketed, np.sqrt(lo * hi), outside)


def discrepancy_columns(svd, b, targets):
    """Alpha and attained residual of the kernel for targets per column."""
    _, info = regularized_solve(svd, b, RegStrategy("tikhonov", safety=1.0),
                                delta_abs=targets)
    return info["alpha"], info["residual"]


def projected(svd, b):
    """``|U^H b|^2`` and ``|b|^2`` of columns, as the kernel forms them."""
    return np.abs(svd.project(b)) ** 2, np.sum(np.abs(b) ** 2, axis=0)


def frozen_discrepancy_root(s2, beta2, b_perp2, b2, t2):
    """The discrepancy root as it was when 8 bisection steps bracketed it,
    before it formed shared alphas on one column, fused its squared sums and
    compacted Newton's tail: every step runs on every column.  The kernel's
    root must agree with it to rounding."""
    if np.any(t2 >= b2):
        raise NoiseDominates(int(np.sum(t2 >= b2)), len(b2))
    q, w = np.empty(beta2.shape), np.empty(beta2.shape)

    def res2(alpha):
        np.add(s2, alpha, out=q)
        np.divide(alpha, q, out=q)
        np.multiply(q, q, out=w)
        return np.einsum("ij,ij->j", w, beta2) + b_perp2

    lo = np.full(len(b2), 1e-14 * s2[0, 0])
    hi = np.full(len(b2), s2[0, 0])
    r_lo, r_hi = res2(lo), res2(hi)
    bracketed = (r_lo < t2) & (r_hi > t2)
    outside = np.where(r_lo >= t2, lo, hi)
    for _ in range(8):
        mid = np.sqrt(lo * hi)
        below = res2(mid) < t2
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    mu, active = 1.0 / hi, bracketed
    for _ in range(30):
        if not active.any():
            break
        g = res2(1.0 / mu) - t2
        w *= q
        w *= s2
        step = np.divide(g, 2.0 * np.einsum("ij,ij->j", w, beta2),
                         out=np.zeros_like(g), where=active)
        active = active & (step > 4.0 * np.finfo(float).eps * mu)
        mu[active] += step[active]
    return np.where(bracketed, 1.0 / mu, outside)


def table_residual2(s2, beta2, b_perp2):
    """The squared residual of each column at the 29 alphas of the root's
    table, geometrically spaced over ``[1e-14 s1^2, s1^2]``, formed as the
    root forms it: rows are alphas, columns are columns."""
    alphas = np.geomspace(1e-14 * s2[0, 0], s2[0, 0], 29)
    q = alphas / (s2 + alphas)
    return alphas, (q * q).T @ beta2 + b_perp2


def frozen_table_root(s2, beta2, b_perp2, b2, t2):
    """The table-bracketed discrepancy root with every Newton step on every
    column, written apart from the kernel's root, which must keep its
    bits."""
    if np.any(t2 >= b2):
        raise NoiseDominates(int(np.sum(t2 >= b2)), len(b2))
    alphas, table = table_residual2(s2, beta2, b_perp2)
    bracketed = (table[0] < t2) & (table[-1] > t2)
    # the last table alpha below the target; the bracket's top is the next one
    j = np.minimum(28 - np.argmax((table < t2)[::-1], axis=0), 27)
    r0, r1 = table[j, np.arange(len(t2))], table[j + 1, np.arange(len(t2))]
    with np.errstate(all="ignore"):  # the columns outside the bracket
        frac = np.log(t2 / r0) / np.log(r1 / r0)
        start = 1.0 / (alphas[j] * (alphas[j + 1] / alphas[j]) ** frac)
    mu = np.where(bracketed, start, 1.0 / alphas[-1])
    q, w = np.empty(beta2.shape), np.empty(beta2.shape)
    active = bracketed
    for k in range(30):
        if not active.any():
            break
        alpha = 1.0 / mu
        np.add(s2, alpha, out=q)
        np.divide(alpha, q, out=q)
        np.multiply(q, q, out=w)
        g = np.einsum("ij,ij->j", w, beta2) + b_perp2 - t2
        w *= q
        w *= s2
        slope = 2.0 * np.einsum("ij,ij->j", w, beta2)
        step = np.divide(g, slope, out=np.zeros_like(g), where=active)
        if k == 0:  # from either side of the root, floored at the bracket's top
            mu = np.where(active, np.maximum(mu + step, 1.0 / alphas[j + 1]), mu)
            continue
        # a step of rounding size is not taken; after one of at most
        # sqrt(eps / 3) mu, a column whose root rounding moves by less than
        # 4 eps mu has settled
        moves = active & (step > 4.0 * np.finfo(float).eps * mu)
        settled = (step <= np.sqrt(np.finfo(float).eps / 3.0) * mu) & (t2 <= 4.0 * mu * slope)
        active = moves & ~settled
        mu[moves] += step[moves]
    return np.where(bracketed, 1.0 / mu, np.where(table[0] >= t2, alphas[0], alphas[-1]))


def root_inputs(width, seed, fractions=None):
    """Arguments of the discrepancy root for ``width`` columns of a 64-mode
    system, as the kernel forms them; targets are ``fractions`` of ``|b|``,
    by default spread log-uniformly from in front of the bracket to its top."""
    a, b = decaying_system(64, width, seed)
    svd = SvdFactorization.from_matrix(a)
    beta2, b2 = projected(svd, b)
    s = svd.s
    b_perp2 = b2 - beta2.sum(axis=0)
    b_perp2 = np.where(b_perp2 > len(s) * np.finfo(float).eps * b2, b_perp2, 0.0)
    if fractions is None:
        fractions = 10 ** np.random.Generator(np.random.Philox(seed)).uniform(-9, -0.02, width)
    return s[:, None] ** 2, beta2, b_perp2, b2, (fractions * np.sqrt(b2)) ** 2


def residual2_at(alpha, s2, beta2, b_perp2):
    """Squared residual of each column at one ``alpha``, summed as the frozen
    root sums it."""
    q = alpha / (s2 + alpha)
    return np.einsum("ij,ij->j", q * q, beta2) + b_perp2


def same_root_bits(s2, beta2, b_perp2, b2, t2):
    got = regularization._discrepancy_root(s2, beta2, b_perp2, b2, t2)
    want = frozen_table_root(s2, beta2, b_perp2, b2, t2)
    return got.tobytes() == want.tobytes()


def right_starts(s2, beta2, b_perp2, t2):
    """The bracketed columns whose Newton starts above the root in ``mu``
    (below it in alpha), where the first step is negative."""
    start, _, bracketed, _ = regularization._bracket(s2, beta2, b_perp2, t2)
    at_start = residual2_at(1.0 / start, s2, beta2, b_perp2)
    return bracketed & (at_start < t2)


def newton_widths(*args):
    """The root's alphas, and the column counts of its two-operand sums over
    the modes, which on two or more columns only Newton's steps make."""
    widths, einsum = [], np.einsum

    def recording(subscripts, *operands, **kwargs):
        if subscripts == "ij,ij->j":
            widths.append(operands[1].shape[1])
        return einsum(subscripts, *operands, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "einsum", recording)
        return regularization._discrepancy_root(*args), widths


class TestDiscrepancyRoot:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.booleans(),
           st.lists(st.floats(0.02, 0.45), min_size=2, max_size=6))
    def test_alpha_matches_bisection(self, seed, complex_rhs, fractions):
        a, b = decaying_system(10, len(fractions), seed, complex_rhs)
        svd = SvdFactorization.from_matrix(a)
        targets = np.array(fractions) * np.linalg.norm(b, axis=0)
        alpha, residual = discrepancy_columns(svd, b, targets)
        want = bisection_alpha(svd.s, *projected(svd, b), targets**2)
        assert np.all(np.abs(alpha - want) <= 1e-13 * want)
        assert np.all(np.abs(residual - targets) <= 1e-12 * targets)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_alpha_grows_strictly_with_target(self, seed, complex_rhs):
        a, b = decaying_system(10, 1, seed, complex_rhs)
        svd = SvdFactorization.from_matrix(a)
        fractions = np.geomspace(0.05, 0.4, 7)
        b = np.repeat(b, len(fractions), axis=1)
        alpha, _ = discrepancy_columns(svd, b, fractions * np.linalg.norm(b[:, 0]))
        assert np.all(np.diff(alpha) > 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_targets_out_of_bracket_get_the_endpoints(self, seed, complex_rhs):
        # a zero singular value keeps the residual above the floor's
        rng = np.random.Generator(np.random.Philox(seed))
        s = np.r_[np.logspace(0, -3, 5), 0.0]
        q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        svd = SvdFactorization.from_matrix((q1 * s) @ q2)
        b = rng.normal(size=(6, 4))
        if complex_rhs:
            b = b + 1j * rng.normal(size=(6, 4))
        beta2, b2 = projected(svd, b)
        res2 = residual2(svd.s, beta2, b2)
        floor, top = 1e-14 * svd.s[0] ** 2, svd.s[0] ** 2
        r_lo, r_hi = res2(np.full(4, floor)), res2(np.full(4, top))
        # two targets below the residual at the floor, two between the
        # residual at s1^2 and |b|
        t2 = np.r_[r_lo[:2] / 2, (r_hi[2:] + b2[2:]) / 2]
        alpha, _ = discrepancy_columns(svd, b, np.sqrt(t2))
        want = bisection_alpha(svd.s, beta2, b2, t2)
        assert np.array_equal(alpha, [floor, floor, top, top])
        assert np.array_equal(alpha, want)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.booleans(), min_size=1, max_size=8))
    def test_noise_dominates_counts_columns(self, seed, dominated):
        dominated = np.array(dominated)
        a, b = decaying_system(6, len(dominated), seed)
        svd = SvdFactorization.from_matrix(a)
        targets = np.linalg.norm(b, axis=0) * np.where(dominated, 1.5, 0.2)
        if not dominated.any():
            discrepancy_columns(svd, b, targets)
            return
        with pytest.raises(NoiseDominates) as caught:
            discrepancy_columns(svd, b, targets)
        assert (caught.value.columns, caught.value.total) == (dominated.sum(), len(dominated))

    @pytest.mark.parametrize("fraction", [0.2, 0.45, 0.6])
    def test_column_alpha_ignores_its_neighbours(self, fraction):
        # Columns stop stepping on their own test, so the result of one must not
        # depend on whether the others stop sooner (targets out of the bracket
        # take no Newton step) or later (the bracketed targets take up to five
        # steps here, this column three or four), nor on its place in the block.
        a, b = decaying_system(10, 1, 2)
        svd = SvdFactorization.from_matrix(a)
        beta2, b2 = projected(svd, b)
        norm = np.sqrt(b2[0])
        fast = np.full(15, 1e-4 * norm)
        slow = norm * np.resize([0.2, 0.01, 0.05, 0.02, 0.3], 15)

        def alpha_of_first(neighbours, order=np.arange(16)):
            targets = np.r_[fraction * norm, neighbours][order]
            _, info = spectral_filter(svd, np.repeat(beta2, 16, axis=1),
                                      np.repeat(b2, 16),
                                      RegStrategy("tikhonov", safety=1.0), targets)
            return info["alpha"][np.argsort(order)[0]]

        alone = alpha_of_first(fast)
        perm = np.random.Generator(np.random.Philox(7)).permutation(16)
        assert alpha_of_first(slow) == alone
        assert alpha_of_first(slow, perm) == alone
        assert alpha_of_first(fast, perm) == alone

    @pytest.mark.parametrize("width", [1, 2, 3, 17, 4096])
    def test_root_keeps_the_bits_of_the_frozen_root(self, width):
        assert same_root_bits(*root_inputs(width, width))

    def test_settled_columns_skip_the_confirming_step(self, monkeypatch):
        # a step that leaves a well-posed column at rounding is its last;
        # without that stop, every column takes one more to confirm it, and
        # on this slice the slowest column then takes one more pass
        fractions = 10 ** np.random.Generator(np.random.Philox(11)).uniform(-3, -0.5, 1024)
        args = root_inputs(1024, 11, fractions)
        alpha, widths = newton_widths(*args)
        monkeypatch.setattr(regularization, "_SETTLED", 0.0)
        confirmed, confirming = newton_widths(*args)
        # two sums per pass
        assert (len(widths) // 2, len(confirming) // 2) == (4, 5)
        assert np.all(np.abs(alpha - confirmed) <= 1e-14 * confirmed)

    @pytest.mark.parametrize("width", [1, 2, 3, 17, 301, 4096])
    def test_root_agrees_with_the_bisection_bracketed_root(self, width):
        args = root_inputs(width, width)
        got = regularization._discrepancy_root(*args)
        want = frozen_discrepancy_root(*args)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 10**6))
    def test_residual_at_the_root_is_the_target(self, width, seed):
        s2, beta2, b_perp2, b2, t2 = root_inputs(width, seed)
        alpha = regularization._discrepancy_root(s2, beta2, b_perp2, b2, t2)
        inside = regularization._bracket(s2, beta2, b_perp2, t2)[2]
        residual = np.sqrt(residual2_at(alpha, s2, beta2, b_perp2))
        target = np.sqrt(t2)
        assert np.all(np.abs(residual - target)[inside] <= 1e-12 * target[inside])

    @pytest.mark.parametrize("seed", [4, 11])
    def test_start_above_the_root_still_converges(self, seed):
        # where log res2 is not concave in log alpha between the table's pair,
        # the interpolated start lies past the root, and the first Newton
        # step falls below it and is floored at the bracket's top
        args = root_inputs(301, seed)
        s2, beta2, b_perp2, b2, t2 = args
        right = right_starts(s2, beta2, b_perp2, t2)
        assert right.sum() >= 3
        alpha = regularization._discrepancy_root(*args)
        want = bisection_alpha(np.sqrt(s2[:, 0]), beta2, b2, t2)
        assert np.all(np.abs(alpha - want)[right] <= 1e-14 * want[right])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_root_on_column_views_keeps_the_bits(self, workers):
        # a block split evenly into parts of odd widths, and narrow views
        s2, beta2, b_perp2, b2, t2 = root_inputs(301, 4)
        edges = np.linspace(0, len(b2), workers + 1).astype(int)
        for a, z in [*zip(edges[:-1], edges[1:]), (5, 6), (7, 9), (100, 103)]:
            assert same_root_bits(s2, beta2[:, a:z], b_perp2[a:z], b2[a:z], t2[a:z])

    @pytest.mark.parametrize("width", [301, 128, 16])
    def test_root_on_fixed_slices_keeps_the_bits(self, width):
        # slices of a block cut at fixed columns, as the scan cuts them
        s2, beta2, b_perp2, b2, t2 = root_inputs(301, 4)
        for a in range(0, len(b2), width):
            z = a + width
            assert same_root_bits(s2, beta2[:, a:z], b_perp2[a:z], b2[a:z], t2[a:z])

    @pytest.mark.parametrize("lone", [0, 7, 15])
    def test_lone_stepping_column_keeps_its_bits(self, lone):
        # every other target lies below the bracket, so one column steps,
        # and every sum still spans the whole slice
        fractions = np.full(16, 1e-12)
        fractions[lone] = 0.075
        args = root_inputs(16, 9, fractions)
        assert same_root_bits(*args)
        alpha, widths = newton_widths(*args)
        assert np.sum(alpha != alpha[lone - 1]) == 1
        assert widths and set(widths) == {16}

    @pytest.mark.parametrize("row", [0, 14, 28])
    def test_lone_column_on_a_target_in_the_table_keeps_its_bits(self, row):
        # the target is the table's residual at its floor, a middle alpha or
        # its top: a table that rounded otherwise would flip the comparison
        # with the target there
        s2, beta2, b_perp2, b2, _ = root_inputs(1, 21)
        t2 = table_residual2(s2, beta2, b_perp2)[1][row]
        assert same_root_bits(s2, beta2, b_perp2, b2, t2)

    def test_every_newton_sum_spans_the_slice(self):
        # the root of one slice of the scan steps all its columns on every
        # pass, also once most of them have stopped
        fractions = 10 ** np.random.Generator(np.random.Philox(11)).uniform(-3, -0.5, 1024)
        _, widths = newton_widths(*root_inputs(1024, 11, fractions))
        assert widths and set(widths) == {1024}

    @pytest.mark.parametrize("width", [1, 2, 17])
    def test_all_targets_outside_the_bracket_keep_their_bits(self, width):
        # below the residual at the bracket's floor, or above the one at its top
        s2, beta2, b_perp2, b2, _ = root_inputs(width, 12)
        r_lo, r_hi = (residual2_at(alpha, s2, beta2, b_perp2)
                      for alpha in (1e-14 * s2[0, 0], s2[0, 0]))
        t2 = np.where(np.arange(width) % 2, (r_hi + b2) / 2, r_lo / 2)
        args = s2, beta2, b_perp2, b2, t2
        assert same_root_bits(*args)
        assert newton_widths(*args)[1] == []

    @pytest.mark.parametrize("width", [1, 3, 17])
    def test_noise_dominates_like_the_frozen_root(self, width):
        fractions = np.resize([1.3, 0.2, 1.01], width)
        args = root_inputs(width, 13, fractions)
        errors = []
        for root in (regularization._discrepancy_root, frozen_table_root,
                     frozen_discrepancy_root):
            with pytest.raises(NoiseDominates) as caught:
                root(*args)
            errors.append((caught.value.columns, caught.value.total))
        assert errors == [(np.sum(fractions >= 1), width)] * 3


class TestNoiseModels:
    def test_zero_level_is_identity(self):
        a, _ = random_system(6, 15)
        assert np.array_equal(perturb_matrix(a, 0.0, 1), a)
        g = np.arange(5.0)
        assert np.array_equal(perturb_vector(g, 0.0, 1), g)

    @pytest.mark.parametrize("perturb", [perturb_matrix, perturb_vector])
    @pytest.mark.parametrize("delta", [np.nan, np.inf, -0.01])
    def test_noise_level_must_be_finite_and_nonnegative(self, perturb, delta):
        with pytest.raises(ValueError, match=f"not {delta}"):
            perturb(np.ones((4, 3)), delta, 0)

    def test_unit_spectral_norm(self):
        a, _ = random_system(32, 16)
        e = perturb_matrix(a, 1.0, 7) / a - 1.0
        assert abs(np.linalg.norm(e, 2) - 1.0) < 1e-12

    def test_matrix_determinism(self):
        a, _ = random_system(16, 17)
        x = perturb_matrix(a, 0.05, 123)
        y = perturb_matrix(a, 0.05, 123)
        assert np.array_equal(x, y)

    @pytest.mark.parametrize("shape", [(8, 1), (8, 3), (64, 40)])
    def test_matrix_column_k_draws_from_seed_and_k(self, shape):
        g = np.random.default_rng(5).normal(size=shape)
        want = np.column_stack([perturb_vector(g[:, k], 0.04, (11, k))
                                for k in range(shape[1])])
        assert np.array_equal(perturb_vector(g, 0.04, 11), want)
        assert np.array_equal(perturb_vector(np.asfortranarray(g), 0.04, 11), want)

    def test_vector_recentering(self):
        g = np.linspace(1.0, 2.0, 64)
        e = perturb_vector(g, 0.5, 3) / g - 1.0
        assert abs(e.mean()) < 1e-15

    def test_vector_bound(self):
        g = np.linspace(0.5, 2.0, 32)
        gd = perturb_vector(g, 0.1, 9)
        bound = 0.1 * np.abs(g).max() * (1 + 2.0 / len(g))
        assert np.max(np.abs(gd - g)) <= bound

    def test_matrix_noise_mean_reverts(self):
        # averaging over ten thousand seeds returns the clean matrix
        # within three standard errors entrywise
        a = np.arange(1.0, 17.0).reshape(4, 4)
        delta, n_draws = 0.3, 10000
        acc = np.zeros_like(a)
        acc2 = np.zeros_like(a)
        for seed in range(n_draws):
            d = perturb_matrix(a, delta, seed)
            acc += d
            acc2 += d**2
        mean = acc / n_draws
        se = np.sqrt((acc2 / n_draws - mean**2) / n_draws)
        assert np.all(np.abs(mean - a) <= 3.0 * se + 1e-12)

    def test_expected_norm(self):
        g = np.ones(10000)
        draws = [np.linalg.norm(perturb_vector(g, 0.2, s) - g) for s in range(5)]
        assert np.allclose(draws, expected_noise_norm(g, 0.2), rtol=0.05)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_vector_determinism(self, seed):
        g = np.linspace(-1, 1, 17)
        assert np.array_equal(perturb_vector(g, 0.04, seed),
                              perturb_vector(g, 0.04, seed))
