import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

import eitdisk
from eitdisk.annulus import AnnulusConfig, gap_coefficient, gap_operator
from eitdisk.bie import kress_log_weights
from eitdisk.dtn import (DtnOperator, gap_from_lambda0,
                         healthy_collocation_matrix, healthy_fourier_matrix,
                         to_real_trig_basis)


class TestCirculantBuilds:
    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_bits_equal_scipy_toeplitz_of_the_symbol(self, n):
        def toeplitz(symbol):
            return la.toeplitz(np.fft.irfft(symbol, n))

        m = np.arange(n // 2 + 1)
        assert np.array_equal(healthy_collocation_matrix(n),
                              toeplitz(np.where(2 * m < n, m, 0)))
        assert np.array_equal(kress_log_weights(n),
                              toeplitz(np.concatenate([[0.0], -2.0 * np.pi / m[1:]])))
        if n >= 40:
            cfg = AnnulusConfig(0.5, "impedance", gamma=2.0, order=19)
            symbol = [gap_coefficient(cfg, k) for k in range(20)]
            assert np.array_equal(gap_operator(cfg, n=n).matrix, toeplitz(symbol))

    def test_only_the_lu_modules_import_scipy(self):
        pkg = Path(eitdisk.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in pkg.glob("*.py")}

        def imported(node):
            if isinstance(node, ast.Import):
                return [alias.name for alias in node.names]
            return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

        def identifiers(tree):
            return {getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None) for node in ast.walk(tree)}

        def imports_scipy(node):
            return any(name.split(".")[0] == "scipy" for name in imported(node))

        importers = {stem for stem, tree in trees.items() for node in ast.walk(tree)
                     if imports_scipy(node)}
        assert importers == {"bie", "completion"}
        # scipy loads on the first LU: no module imports it when it loads,
        assert not [node for tree in trees.values() for node in tree.body
                    if imports_scipy(node)]
        # and every import of it is a statement of an LU function's own body
        sites = {(stem, f.name): sum(map(imports_scipy, f.body))
                 for stem, tree in trees.items() for f in tree.body
                 if isinstance(f, ast.FunctionDef)}
        assert {site for site, count in sites.items() if count} == {
            ("bie", "_factorize"), ("bie", "solve_forward"),
            ("completion", "assemble_completion")}
        assert sum(sites.values()) == sum(imports_scipy(node) for tree in trees.values()
                                          for node in ast.walk(tree))
        assert not any("toeplitz" in identifiers(tree) for tree in trees.values())
        la_users = {f.name for f in trees["bie"].body
                    if isinstance(f, ast.FunctionDef) and "la" in identifiers(f)}
        assert la_users == {"_factorize", "solve_forward"}


class TestHealthyMatrices:
    def test_collocation_eigenmodes(self):
        for n, top in ((32, 16), (512, 25)):
            h = healthy_collocation_matrix(n)
            t = 2 * np.pi * np.arange(n) / n
            for m in range(0, top):
                for f in (np.cos(m * t), np.sin(m * t)):
                    assert np.max(np.abs(h @ f - m * f)) < 1e-11, (n, m)

    def test_collocation_symmetric(self):
        h = healthy_collocation_matrix(64)
        assert np.max(np.abs(h - h.T)) < 1e-14

    def test_fourier_diagonal(self):
        h = healthy_fourier_matrix([-2, -1, 0, 1, 2])
        assert np.allclose(np.diag(h), [2, 1, 0, 1, 2])


class TestGapConstruction:
    def test_gap_from_lambda0_fourier(self):
        modes = np.arange(0, 4)
        lam = DtnOperator("fourier", np.eye(4, dtype=complex), modes)
        gap = gap_from_lambda0(lam)
        assert np.allclose(np.diag(gap.matrix), [0 - 1, 1 - 1, 2 - 1, 3 - 1])

    def test_gap_roundtrip_against_series(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        gap = gap_operator(cfg, basis="collocation", n=64)
        healthy = healthy_collocation_matrix(64)
        lam = DtnOperator("collocation", healthy - gap.matrix)
        back = gap_from_lambda0(lam)
        assert np.allclose(back.matrix, gap.matrix)

    @pytest.mark.parametrize("n, order", [(64, 32), (64, 40), (16, 8)])
    def test_collocation_order_above_the_band_rejected(self, n, order):
        cfg = AnnulusConfig(0.5, "dirichlet", order=order)
        with pytest.raises(ValueError, match=f"n = {n}.*order = {order}"):
            gap_operator(cfg, basis="collocation", n=n)

    def test_collocation_eigenmodes_are_gap_coefficients(self):
        n, cfg = 64, AnnulusConfig(0.5, "dirichlet", order=31)
        gap = gap_operator(cfg, basis="collocation", n=n).matrix
        t = 2 * np.pi * np.arange(n) / n
        for m in range(n // 2):
            for f in (np.cos(m * t), np.sin(m * t)):
                assert np.max(np.abs(gap @ f - gap_coefficient(cfg, m) * f)) < 1e-13


class TestRealTrigBasis:
    def test_requires_symmetric_modes(self):
        op = DtnOperator("fourier", np.eye(3, dtype=complex), [0, 1, 2])
        with pytest.raises(ValueError):
            to_real_trig_basis(op)

    def test_diagonal_series_gives_symmetric_real(self):
        cfg = AnnulusConfig(0.5, "dirichlet", order=6)
        op = gap_operator(cfg, basis="fourier", modes=np.arange(-6, 7))
        real, imag = to_real_trig_basis(op)
        assert np.max(np.abs(imag)) < 1e-14
        assert np.max(np.abs(real - real.T)) < 1e-13

    def test_preserves_spectrum(self):
        # the real trig basis is orthonormal, so singular values must agree
        cfg = AnnulusConfig(0.4, "dirichlet", order=5)
        op = gap_operator(cfg, basis="fourier", modes=np.arange(-5, 6))
        real, _ = to_real_trig_basis(op)
        s_complex = np.sort(np.abs(np.linalg.svd(op.matrix, compute_uv=False)))
        s_real = np.sort(np.abs(np.linalg.svd(real, compute_uv=False)))
        assert np.allclose(s_complex, s_real, atol=1e-12)

    def test_operator_action_matches(self):
        # applying the real matrix to cos(2 t) coefficients reproduces the
        # diagonal gap coefficient
        cfg = AnnulusConfig(0.5, "dirichlet", order=4)
        op = gap_operator(cfg, basis="fourier", modes=np.arange(-4, 5))
        real, _ = to_real_trig_basis(op)
        e = np.zeros(9)
        e[3] = 1.0          # cos(2 t) slot in (const, c1, s1, c2, s2, ...)
        out = real @ e
        assert abs(out[3] - gap_coefficient(cfg, 2)) < 1e-13
        out[3] = 0.0
        assert np.max(np.abs(out)) < 1e-13
