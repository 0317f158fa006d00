"""SVD-based regularization and the two noise models used in the experiments.

Every regularized solve goes through one column kernel,
:func:`spectral_filter`: from ``|beta|^2``, where ``beta = U^H b`` for a block
of right-hand sides, it returns real filter factors ``F``, with solutions
``x = Vh^H (F * beta)``, and per column the chosen penalty or kept rank and
the residual:

- Tikhonov: ``F_i = s_i/(alpha + s_i^2)`` minimizes
  ``|A x - b|^2 + alpha |x|^2``, also on rank-deficient systems.  ``alpha`` is
  explicit or chosen per column by the Morozov discrepancy principle, the
  root of ``|A x_alpha - b| = target``.  That residual increases with
  ``alpha``: bisection on ``log alpha`` over ``[1e-14 s1^2, s1^2]`` brackets
  it, then Newton in ``mu = 1/alpha``, where its square is convex, resolves it
  to rounding per column (Engl, Hanke & Neubauer, 1996, ch. 4).
- Spectral cutoff: ``F_i = 1/s_i`` on the singular triplets with
  ``s_i >= tau * s_1``, or above an absolute, noise-tied threshold per
  column, and zero elsewhere.
- None: the plain inverse ``F_i = 1/s_i`` of a nonsingular system.

:func:`regularized_solve` applies the kernel to one vector or a matrix of
columns; :func:`tikhonov_solve` and :func:`discrepancy_alpha` are
one-strategy calls of it, and the sampling scan runs the kernel over column
slices of blocks of grid points, on threads.  The kernel is elementwise work
plus sums over the modes of each column, so a slice of two or more adjacent
columns of a block filters to the same bits as the block.

Noise models: multiplicative entrywise perturbations ``A (1 + delta E)`` with
a zero-mean uniform matrix scaled to unit spectral norm, and the vector
analogue ``g (1 + delta e)`` with recentered uniform entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import AllModesCutWarning, NoiseDominates, SingularSystem

__all__ = [
    "SvdFactorization",
    "RegStrategy",
    "spectral_filter",
    "tikhonov_solve",
    "discrepancy_alpha",
    "regularized_solve",
    "perturb_matrix",
    "perturb_vector",
    "expected_noise_norm",
]

_ALPHA_FLOOR = 1e-14  # bottom of the discrepancy bracket, relative to s1^2
# halvings of the 1e14-wide log bracket before Newton: each root is then known
# to a factor 1e14**(1/256) < 1.14, from where Newton takes about six steps
_COARSE_STEPS = 8
_NEWTON_STEPS = 30  # cap on the Newton steps of a column


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``A = U diag(s) Vh`` with nonincreasing singular values."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @classmethod
    def from_matrix(cls, a):
        u, s, vh = np.linalg.svd(np.asarray(a), full_matrices=False)
        return cls(u, s, vh)

    def project(self, b):
        """Coefficients of ``b`` in the left singular basis."""
        return self.u.conj().T @ np.asarray(b)


@dataclass(frozen=True)
class RegStrategy:
    """Choice of regularization for an ill-posed dense solve.

    ``kind`` is one of ``tikhonov``, ``cutoff`` or ``none``.  A Tikhonov
    strategy carries either an explicit ``alpha`` or a relative noise level
    plus safety factor for the discrepancy principle.  A cutoff strategy
    carries either a relative threshold ``tau`` (measured against the largest
    singular value) or, when ``noise_level`` is set instead, an absolute
    threshold of ``safety`` times the expected noise magnitude of the data.
    A noise-tied level must be positive: at zero the solve is unregularized;
    its safety factor must be at least 1.  Every constructor rejects NaN and
    infinite values.
    """

    kind: str
    alpha: float | None = None
    tau: float | None = None
    noise_level: float | None = None
    safety: float = 1.5

    @classmethod
    def tikhonov(cls, alpha):
        if not 0 < alpha < np.inf:
            raise ValueError(f"explicit alpha must be positive and finite, not {alpha}")
        return cls("tikhonov", alpha=float(alpha))

    @classmethod
    def tikhonov_discrepancy(cls, noise_level, safety=1.5):
        return cls._noise_tied("tikhonov", noise_level, safety)

    @classmethod
    def spectral_cutoff(cls, tau):
        if not 0 < tau < 1:
            raise ValueError(f"relative cutoff must lie in (0, 1), not {tau}")
        return cls("cutoff", tau=float(tau))

    @classmethod
    def cutoff_by_noise(cls, noise_level, safety=2.0):
        return cls._noise_tied("cutoff", noise_level, safety)

    @classmethod
    def _noise_tied(cls, kind, noise_level, safety):
        if not 0 < noise_level < np.inf:
            raise ValueError("a noise-tied strategy needs a positive noise level "
                             f"that is finite, not {noise_level}")
        if not 1 <= safety < np.inf:
            raise ValueError(f"safety factor must be finite and >= 1, not {safety}")
        return cls(kind, noise_level=float(noise_level), safety=float(safety))

    @classmethod
    def none(cls):
        return cls("none")

    @property
    def noise_tied(self):
        """Whether the penalty or threshold follows the noise level of the data."""
        return self.kind in ("tikhonov", "cutoff") and self.alpha is None and self.tau is None


def spectral_filter(s, beta2, b2, reg, delta_abs=None):
    """Filter factors of one strategy for right-hand-side columns.

    ``s`` are the singular values, ``beta2 = |U^H b|^2`` the squared
    coefficients of the columns ``b`` (shape ``(k, P)``; only read), ``b2``
    their squared norms and ``delta_abs`` the absolute noise per column
    (default ``reg.noise_level * |b|``).  Returns the real filter ``F``, with
    solutions ``x = Vh^H (F * beta)``, and per-column arrays ``alpha`` and/or
    ``rank`` and ``residual = |A x - b|``.  A column whose cutoff removes every
    mode gets rank 0 and a zero filter; the caller warns, once per solve.
    It only reads its inputs, so callers may run it on column slices in threads.
    """
    b_perp2 = b2 - beta2.sum(axis=0)
    # below the rounding of that difference the orthogonal part is noise
    b_perp2 = np.where(b_perp2 > len(s) * np.finfo(float).eps * b2, b_perp2, 0.0)
    s_col = s[:, None]
    target = None
    if reg.noise_tied:
        if delta_abs is None:
            delta_abs = reg.noise_level * np.sqrt(b2)
        target = reg.safety * np.broadcast_to(delta_abs, b2.shape)
    if reg.kind == "tikhonov":
        if target is None:
            alpha = np.full(b2.shape, float(reg.alpha))
        else:
            alpha = _discrepancy_root(s_col**2, beta2, b_perp2, b2, target**2)
        comp = alpha + s_col**2  # turned into 1 - s F, the residual's filter
        filt = s_col / comp
        np.divide(alpha, comp, out=comp)
        info = {"alpha": alpha}
    else:
        if reg.kind == "cutoff":
            thr = reg.tau * s[0] if target is None else target
        elif reg.kind == "none":
            if not len(s) or s[-1] <= s[0] * 1e-14:
                raise SingularSystem("unregularized solve of a singular system",
                                     condition=np.inf)
            thr = 0.0
        else:
            raise ValueError(f"unknown strategy kind {reg.kind!r}")
        keep = s_col >= np.broadcast_to(thr, b2.shape)
        filt = keep * np.divide(1.0, s_col, out=np.zeros_like(s_col), where=s_col > 0)
        comp = 1.0 - keep
        info = {"rank": keep.sum(axis=0)}
        if reg.kind == "none":
            info["alpha"] = np.zeros(b2.shape)
    comp *= comp  # in place: few (k, P) buffers live at once
    comp *= beta2
    info["residual"] = np.sqrt(comp.sum(axis=0) + b_perp2)
    return filt, info


def _discrepancy_root(s2, beta2, b_perp2, b2, t2):
    """Per-column root of ``|A x_alpha - b|^2 = t2`` on ``[1e-14 s1^2, s1^2]``.

    Bisection on ``log alpha`` brackets each root, then Newton in
    ``mu = 1/alpha`` rises to it from the bracket's upper ``alpha``.  A column
    stops for good once its step falls to rounding, so its result does not
    depend on the other columns.  A column whose target is not reached inside
    the bracket gets the nearer endpoint.  Raises :class:`NoiseDominates` when
    a target reaches the data norm, where no fit is meaningful.
    """
    if np.any(t2 >= b2):
        raise NoiseDominates(int(np.sum(t2 >= b2)), len(b2))
    q, w = np.empty(beta2.shape), np.empty(beta2.shape)  # reused by every step

    def res2(alpha):  # leaves q = alpha / (alpha + s^2) = 1 / (1 + mu s^2)
        np.add(s2, alpha, out=q)
        np.divide(alpha, q, out=q)
        np.multiply(q, q, out=w)
        return np.einsum("ij,ij->j", w, beta2) + b_perp2

    lo = np.full(len(b2), _ALPHA_FLOOR * s2[0, 0])
    hi = np.full(len(b2), s2[0, 0])
    r_lo, r_hi = res2(lo), res2(hi)
    bracketed = (r_lo < t2) & (r_hi > t2)
    outside = np.where(r_lo >= t2, lo, hi)
    for _ in range(_COARSE_STEPS):
        mid = np.sqrt(lo * hi)
        below = res2(mid) < t2
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    # g(mu) = res2 - t^2 is decreasing and convex, g' = -2 sum q^3 s^2 beta^2
    mu, active = 1.0 / hi, bracketed
    for _ in range(_NEWTON_STEPS):
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


def regularized_solve(svd, b, reg, delta_abs=None):
    """Solve for one right-hand side ``(n,)`` or columns ``(n, P)``.

    ``delta_abs`` supplies the absolute noise magnitude for noise-tied
    strategies (scalar or one per column); by default it is
    ``reg.noise_level * |b|`` per column.  Returns the solution(s) and a
    diagnostics dict (chosen alpha and/or kept rank, residual ``|A x - b|``),
    holding scalars for a vector ``b`` and per-column arrays otherwise.
    Warns :class:`AllModesCutWarning` once when a cutoff removes every mode
    of some column, whose solution is then zero.
    """
    b = np.asarray(b)
    cols = b.reshape(len(b), -1)
    beta = svd.project(cols)
    filt, info = spectral_filter(svd.s, np.abs(beta) ** 2,
                                 np.sum(np.abs(cols) ** 2, axis=0), reg, delta_abs)
    if "rank" in info and np.any(info["rank"] == 0):
        warnings.warn("cutoff removed every singular mode", AllModesCutWarning)
    x = svd.vh.conj().T @ (filt * beta)
    if b.ndim == 1:
        return x[:, 0], {k: v[0].item() for k, v in info.items()}
    return x, info


def tikhonov_solve(svd, b, alpha):
    """Penalized least-squares solution through the SVD filter."""
    return regularized_solve(svd, b, RegStrategy.tikhonov(alpha))[0]


def discrepancy_alpha(svd, b, delta_abs, safety=1.5):
    """Penalty weight with residual ``safety * delta_abs``.

    The nearer bracket endpoint when the target is out of reach; raises
    :class:`NoiseDominates` when the target reaches ``|b|``.
    """
    _, info = regularized_solve(svd, b, RegStrategy("tikhonov", safety=safety),
                                delta_abs=delta_abs)
    return info["alpha"]


def _check_noise_level(delta):
    if not 0 <= delta < np.inf:
        raise ValueError(f"noise level must be finite and >= 0, not {delta}")


def perturb_matrix(a, delta, seed):
    """Entrywise multiplicative noise ``A (1 + delta E)``.

    ``E`` has independent uniform[-1, 1] entries recentered to exact zero
    mean and scaled to unit spectral norm.  Deterministic for a fixed seed.
    """
    a = np.asarray(a)
    _check_noise_level(delta)
    if delta == 0:
        return a.copy()
    rng = np.random.Generator(np.random.Philox(seed))
    e = rng.uniform(-1.0, 1.0, size=a.shape)
    e -= e.mean()
    e /= np.linalg.norm(e, 2)
    return a * (1.0 + delta * e)


def perturb_vector(g, delta, seed):
    """Entrywise multiplicative noise ``g (1 + delta e)`` with recentered
    uniform[-1, 1] entries.  Column ``k`` of an ``(n, K)`` matrix draws from
    seed ``(seed, k)``, as a call on that column alone would."""
    g = np.asarray(g)
    _check_noise_level(delta)
    if delta == 0:
        return g.copy()
    if g.ndim == 2:
        return np.column_stack([perturb_vector(c, delta, (seed, k)) for k, c in enumerate(g.T)])
    rng = np.random.Generator(np.random.Philox(seed))
    e = rng.uniform(-1.0, 1.0, size=g.shape)
    e -= e.mean()
    return g * (1.0 + delta * e)


def expected_noise_norm(g, delta):
    """Expected magnitude of the vector noise model, ``delta |g| / sqrt(3)``."""
    return delta * float(np.linalg.norm(g)) / np.sqrt(3.0)
