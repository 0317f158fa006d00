"""Built-in cross-validation suites.

Each suite checks one pillar of the numerical machinery against an
independent route (closed-form series, normal equations, Gauss identities)
and reports the measured error next to its tolerance.  The command-line
``verify`` subcommand runs them all and exits nonzero on any failure; a
suite that raises fails with its error, and the others still run.
The suites call the package's kernels themselves, so a fault there shows:
a double layer of the wrong sign fails the Gauss suite, and a single layer
off by a thousandth fails the forward-solver and constant-mode suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import annulus, bie
from .geometry import BoundaryCurve
from .regularization import SvdFactorization, discrepancy_alpha, tikhonov_solve

__all__ = ["SuiteResult", "run_all"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: measured {self.measured:.3e} (tol {self.tolerance:.1e})"
        return out + (f" {self.detail}" if self.detail else "")


def suite_forward_oracle(name):
    """Nystrom currents against the concentric-circle series."""
    worst = 0.0
    outer = bie.NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
    for rho in (0.25, 0.5):
        inner = bie.NystromMesh(BoundaryCurve.circle(radius=rho), 64)
        for bc, gamma in (("dirichlet", None), ("impedance", 0.5), ("impedance", 2.0)):
            cfg = annulus.AnnulusConfig(rho, bc, gamma)
            gvals = None if gamma is None else np.full(64, gamma)
            for k in (1, 3, 6):
                f = np.cos(k * outer.theta)
                sol = bie.solve_forward(outer, inner, bc, f, gvals)
                flux = sol.outer_flux()
                want = (k - annulus.gap_coefficient(cfg, k)) * f
                err = np.linalg.norm(flux - want) / np.linalg.norm(want)
                worst = max(worst, float(err))
    return SuiteResult(name, worst < 1e-6, worst, 1e-6)


def suite_tikhonov(name):
    """SVD Tikhonov against the normal equations, plus the discrepancy root."""
    rng = np.random.Generator(np.random.Philox(42))
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=8)
    svd = SvdFactorization.from_matrix(a)
    alpha = 1e-3
    x = tikhonov_solve(svd, b, alpha)
    x_ne = np.linalg.solve(alpha * np.eye(8) + a.T @ a, a.T @ b)
    err = np.linalg.norm(x - x_ne) / np.linalg.norm(x_ne)
    target = 0.4 * np.linalg.norm(b)
    al = discrepancy_alpha(svd, b, target, safety=1.0)
    res = np.linalg.norm(a @ tikhonov_solve(svd, b, al) - b)
    err2 = abs(res - target) / target
    worst = max(float(err), float(err2))
    return SuiteResult(name, worst < 1e-8, worst, 1e-8)


def suite_gauss(name):
    """Interior, exterior and on-curve Gauss identities of the double layer."""
    mesh = bie.NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
    ones = np.ones(64)
    inside = bie.double_layer(mesh, np.array([[0.2, 0.1]])) @ ones
    outside = bie.double_layer(mesh, np.array([[5.0, 1.0]])) @ ones
    on_curve = bie.double_layer(mesh, mesh) @ ones
    worst = max(float(abs(inside[0] + 2.0)), float(abs(outside[0])),
                float(np.max(np.abs(on_curve + 1.0))))
    return SuiteResult(name, worst < 1e-10, worst, 1e-10)


def suite_truncation(name):
    """Geometric decay rate of the series truncation error."""
    cfg = annulus.AnnulusConfig(0.5, "dirichlet", order=30)
    worst = 0.0
    for k in range(5, 16):
        r = (annulus.truncation_error(cfg, k, k + 1)
             / annulus.truncation_error(cfg, k + 1, k + 2))
        worst = max(worst, float(abs(np.log(r * cfg.rho**2))))
    # worst log-deviation from the ideal ratio 1/rho^2; factor 2 tolerance
    return SuiteResult(name, worst < np.log(2.0), worst,
                       float(np.log(2.0)))


def suite_sigma0(name):
    """Adjudicate the constant-mode impedance coefficient against the solver."""
    rho, gamma = 0.5, 2.0
    outer = bie.NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
    inner = bie.NystromMesh(BoundaryCurve.circle(radius=rho), 64)
    sol = bie.solve_forward(outer, inner, "impedance", np.ones(64), np.full(64, gamma))
    gap0 = -float(np.mean(sol.outer_flux()))
    cfg = annulus.AnnulusConfig(rho, "impedance", gamma)
    derived = annulus.reflection_coefficient(cfg, 0)
    printed = annulus.reflection_coefficient(cfg, 0, printed=True)
    err_derived = abs(gap0 - derived)
    err_printed = abs(gap0 - printed)
    ok = err_derived < 1e-6 and err_printed > 1e-5
    detail = (f"derived sigma0 {derived:.6f} err {err_derived:.2e}; "
              f"printed variant {printed:.6f} err {err_printed:.2e}")
    return SuiteResult(name, ok,
                       err_derived, 1e-6, detail)


# every suite with the name it reports under, also when it raises
_SUITES = (
    ("gauss identities", suite_gauss),
    ("forward solver vs series", suite_forward_oracle),
    ("tikhonov vs normal equations", suite_tikhonov),
    ("truncation decay rate", suite_truncation),
    ("constant-mode impedance coefficient", suite_sigma0),
)


def run_all():
    """Run every suite; one that raises fails with its error as the detail."""
    results = []
    for name, suite in _SUITES:
        try:
            results.append(suite(name))
        except Exception as exc:  # a faulty kernel may fail in any way
            results.append(SuiteResult(name, False, np.nan, np.nan,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
