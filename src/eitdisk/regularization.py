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
  ``alpha``: one matrix product tabulates its square at 29 alphas over
  ``[1e-14 s1^2, s1^2]``, which brackets the root and gives a start, then
  Newton in ``mu = 1/alpha``, where the square is convex, resolves it to
  rounding per column (Engl, Hanke & Neubauer, 1996, ch. 4).  Its quadratic
  convergence is bounded, so a column stops once a step leaves an error
  below rounding.  Newton's last steps run only on the columns that have not
  settled.
- Spectral cutoff: ``F_i = 1/s_i`` on the singular triplets with
  ``s_i >= tau * s_1``, or above an absolute, noise-tied threshold per
  column, and zero elsewhere.
- None: the plain inverse ``F_i = 1/s_i`` of a nonsingular system.

Every caller factorizes through :meth:`SvdFactorization.from_matrix`.  A
matrix with fewer than 256 rows or columns gets numpy's thin SVD.  A larger
one gets a residual-checked Gaussian range finder, which truncates only at
rounding, ``|A - U diag(s) Vh|_F <= max(m, n) eps s_1``: every singular value
it drops lies below numpy's ``matrix_rank`` tolerance.  Where it finds no
such truncation, as on a matrix of full numerical rank, the thin SVD follows.
The filters act on the kept values alone, the part of ``b`` outside the kept
``U`` counts as residual, and ``none`` treats a truncated factorization as
singular.

:func:`regularized_solve` applies the kernel to one vector or a matrix of
columns; :func:`tikhonov_solve` and :func:`discrepancy_alpha` are
one-strategy calls of it, and the sampling scan runs the kernel over column
slices of blocks of grid points, on threads.  The kernel is elementwise work
plus sums over the modes of each column.  numpy adds up each column of a sum
over two or more columns in the same order, whatever its neighbours, but a
contiguous one-column array in another; so the discrepancy root never
narrows a sum to a single column.  Only the root's table is a matrix
product, whose rounding depends on how many columns it spans: a caller that
filters column slices forms the :func:`discrepancy_bracket` of the whole
block once and hands each slice its part, which then filters to the same
bits as the block.  :func:`regularized_solve` alone forms the residual
``|A x - b|``, which the scan does not read.

Noise models: multiplicative entrywise perturbations ``A (1 + delta E)`` with
a zero-mean uniform matrix scaled to unit spectral norm, and the vector
analogue ``g (1 + delta e)`` with recentered uniform entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import AllModesCutWarning, NoiseDominates, SingularSystem

__all__ = [
    "SvdFactorization",
    "RegStrategy",
    "spectral_filter",
    "DiscrepancyBracket",
    "discrepancy_bracket",
    "tikhonov_solve",
    "discrepancy_alpha",
    "regularized_solve",
    "perturb_matrix",
    "perturb_vector",
    "expected_noise_norm",
]

_ALPHA_FLOOR = 1e-14  # bottom of the discrepancy bracket, relative to s1^2
# alphas of the table that brackets each discrepancy root, a factor
# 1e14**(1/28) < 3.2 apart; from its interpolated start Newton takes about
# three and a half steps
_TABLE_SIZE = 29
_NEWTON_STEPS = 30  # cap on the Newton steps of a column
# a Newton step of h mu, taken below the root, leaves an error under
# 1.5 h^2 mu, which is below rounding for h <= sqrt(eps / 3)
_SETTLED = np.sqrt(np.finfo(float).eps / 3.0)
# most columns Newton steps at once, so that its two work arrays stay small
_NEWTON_COLUMNS = 1024
# the range finder of SvdFactorization.from_matrix: matrices with a shorter
# side take the full SVD; columns added per sketch step; the sketch's seed
_SKETCH_FLOOR = 256
_SKETCH_BLOCK = 32
_SKETCH_SEED = 0


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """SVD ``A ~ U diag(s) Vh`` with nonincreasing singular values, truncated
    only at rounding.

    ``s`` has ``k <= min(m, n)`` values.  When ``k < min(m, n)``, the dropped
    part satisfies ``|A - U diag(s) Vh|_F <= max(m, n) eps s_1``, so every
    dropped singular value lies under numpy's ``matrix_rank`` tolerance.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @classmethod
    def from_matrix(cls, a):
        """Factorize ``a``: by :func:`_range_svd` when both of its sides have
        at least ``_SKETCH_FLOOR`` entries and it finds a numerical rank up to
        half of the shorter one, and otherwise by the thin
        ``np.linalg.svd``."""
        a = np.asarray(a)
        factors = None
        if a.ndim == 2 and min(a.shape) >= _SKETCH_FLOOR:
            factors = _range_svd(a)
        if factors is None:
            factors = np.linalg.svd(a, full_matrices=False)
        return cls(*factors)

    def project(self, b):
        """Coefficients of ``b`` in the left singular basis."""
        return self.u.conj().T @ np.asarray(b)


def _range_svd(a):
    """Truncated SVD ``(u, s, vh)`` of an ``(m, n)`` matrix by a blocked
    Gaussian range finder, or None when the matrix is not numerically low-rank.

    Each step sketches the residual ``R = A - Q B`` with ``_SKETCH_BLOCK``
    Gaussian columns, orthonormalizes the sketch, re-orthogonalizes it against
    the earlier blocks, and deflates its rows ``B_i = Q_i^H R`` from ``R``,
    which is a copy of ``A`` from the first step on (Halko, Martinsson & Tropp,
    2011, Alg. 4.2; Yu, Gu & Li, 2018, for the fixed-precision stop).  It
    stops once ``|R|_F <= max(m, n) eps s_1``, with ``s_1`` that of the first
    block's rows, a lower bound of ``|B|_2``; since ``s_{k+1}(A) <= |R|_2``,
    every singular value dropped then lies below that bound.  The SVD of the
    small ``B`` completes the factorization.  A step that would not halve
    ``|R|_F``, or a rank past ``min(m, n) / 2``, gives None, so that a matrix
    of full numerical rank costs about one step before the full SVD.  The
    sketch comes from a fixed seed, and every step is one BLAS or LAPACK call
    on fixed shapes, so the result does not depend on the call history.
    """
    m, n = a.shape
    rng = np.random.Generator(np.random.Philox(_SKETCH_SEED))
    tol = max(m, n) * np.finfo(float).eps
    r, qs, bs = a, [], []
    res2 = np.vdot(a, a).real
    while _SKETCH_BLOCK * (len(qs) + 1) <= min(m, n) // 2:
        q = np.linalg.qr(r @ rng.standard_normal((n, _SKETCH_BLOCK)))[0]
        if qs:
            for p in qs:
                q -= p @ (p.conj().T @ q)
            q = np.linalg.qr(q)[0]
        b = q.conj().T @ r
        # |R - q b|_F^2 = |R|_F^2 - |b|_F^2: give up before deflating
        if 4 * (res2 - np.vdot(b, b).real) > res2:
            return None
        if r is a:
            r = a - q @ b
            s1 = np.linalg.norm(b, 2)
        else:
            r -= q @ b
        qs.append(q)
        bs.append(b)
        res2 = np.vdot(r, r).real
        if np.sqrt(res2) <= tol * s1:
            ub, s, vh = np.linalg.svd(np.vstack(bs), full_matrices=False)
            return np.hstack(qs) @ ub, s, vh
    return None


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


def _orthogonal_part(svd, beta2, b2):
    """``|b|^2`` outside the kept ``U`` per column, zero below the rounding of
    that difference, a sum over the rows of ``b``."""
    b_perp2 = b2 - beta2.sum(axis=0)
    return np.where(b_perp2 > len(svd.u) * np.finfo(float).eps * b2, b_perp2, 0.0)


def _target(reg, b2, delta_abs):
    """Per column, the residual a noise-tied strategy aims at, ``safety``
    times the absolute noise (default ``reg.noise_level * |b|``)."""
    if delta_abs is None:
        delta_abs = reg.noise_level * np.sqrt(b2)
    return reg.safety * np.broadcast_to(delta_abs, b2.shape)


def spectral_filter(svd, beta2, b2, reg, delta_abs=None, bracket=None):
    """Filter factors of one strategy for right-hand-side columns.

    ``svd`` is the :class:`SvdFactorization` with singular values ``s``,
    ``beta2 = |U^H b|^2`` the squared coefficients of the columns ``b``
    (shape ``(k, P)``; only read), ``b2`` their squared norms and
    ``delta_abs`` the absolute noise per column (default
    ``reg.noise_level * |b|``).  ``bracket`` is the
    :func:`discrepancy_bracket` of these columns, formed here when None.
    Returns the real filter ``F``, with solutions ``x = Vh^H (F * beta)``, and
    per-column arrays ``alpha`` and/or ``rank``.  A column whose cutoff
    removes every mode gets rank 0 and a zero filter; the caller warns, once
    per solve.  Raises :class:`SingularSystem` for ``none`` on a system whose
    smallest singular value is at most ``1e-14 s_1``, or was dropped as
    rounding.  It only reads its inputs, so callers may run it on column
    slices in threads.
    """
    s = svd.s
    s_col = s[:, None]
    target = _target(reg, b2, delta_abs) if reg.noise_tied else None
    if reg.kind == "tikhonov":
        if target is None:
            alpha = np.full(b2.shape, float(reg.alpha))
        else:
            alpha = _discrepancy_root(s_col**2, beta2, _orthogonal_part(svd, beta2, b2),
                                      b2, target**2, bracket)
        filt = alpha + s_col**2
        return np.divide(s_col, filt, out=filt), {"alpha": alpha}
    if reg.kind == "cutoff":
        thr = reg.tau * s[0] if target is None else target
    elif reg.kind == "none":
        truncated = len(s) < min(len(svd.u), svd.vh.shape[1])
        if truncated or not len(s) or s[-1] <= s[0] * 1e-14:
            raise SingularSystem("unregularized solve of a singular system",
                                 condition=np.inf)
        thr = 0.0
    else:
        raise ValueError(f"unknown strategy kind {reg.kind!r}")
    keep = s_col >= np.broadcast_to(thr, b2.shape)
    filt = keep * np.divide(1.0, s_col, out=np.zeros_like(s_col), where=s_col > 0)
    info = {"rank": keep.sum(axis=0)}
    if reg.kind == "none":
        info["alpha"] = np.zeros(b2.shape)
    return filt, info


def _residual(s, beta2, b_perp2, info):
    """``|A x - b|`` per column from the filter's kept rank or its alpha: the
    residual's filter ``1 - s F`` is 0 on a kept mode and 1 on a cut one, or
    ``alpha / (alpha + s^2)``."""
    s_col = s[:, None]
    if "rank" in info:  # the kept modes are the leading ones
        comp = 1.0 - (np.arange(len(s))[:, None] < info["rank"])
    else:
        comp = info["alpha"] + s_col**2
        np.divide(info["alpha"], comp, out=comp)
    comp *= comp  # in place: few (k, P) buffers live at once
    comp *= beta2
    return np.sqrt(comp.sum(axis=0) + b_perp2)


class DiscrepancyBracket(NamedTuple):
    """Per column, what the discrepancy root's table gives Newton: its
    ``start`` and the ``floor`` of its first step in ``mu = 1/alpha``,
    whether the root is ``bracketed`` by ``[1e-14 s1^2, s1^2]``, and the
    ``endpoint`` alpha of a column whose root is not."""

    start: np.ndarray
    floor: np.ndarray
    bracketed: np.ndarray
    endpoint: np.ndarray

    def columns(self, cols):
        """The bracket of the columns ``cols`` (a slice gives views)."""
        return DiscrepancyBracket(*(v[cols] for v in self))


def discrepancy_bracket(svd, beta2, b2, reg, delta_abs=None):
    """The :class:`DiscrepancyBracket` that :func:`spectral_filter` forms for
    these columns under a discrepancy-principle Tikhonov ``reg``, or None for
    any other strategy.  Its one matrix product rounds by the number of
    columns, so a caller that filters column slices forms it once for all."""
    if reg.kind != "tikhonov" or not reg.noise_tied:
        return None
    return _bracket(svd.s[:, None]**2, beta2, _orthogonal_part(svd, beta2, b2),
                    _target(reg, b2, delta_abs)**2)


def _bracket(s2, beta2, b_perp2, t2):
    """Bracket each root of ``|A x_alpha - b|^2 = t2`` on a table.

    One matrix product forms the squared residual of every column at
    ``_TABLE_SIZE`` alphas, geometrically spaced over ``[1e-14 s1^2,
    s1^2]``: ``q^2 beta2 + b_perp2`` with ``q = alpha / (alpha + s^2)``.  A
    column whose target lies between the two ends starts Newton where ``log
    res2``, linear in ``log alpha`` between the pair of table alphas around
    its target, meets it, and the top alpha of that pair floors the first
    step in ``mu``; any other column gets the nearer end.
    """
    lo, hi = _ALPHA_FLOOR * s2[0, 0], s2[0, 0]
    alphas = np.geomspace(lo, hi, _TABLE_SIZE)
    q = alphas / (s2 + alphas)
    table = (q * q).T @ beta2
    table += b_perp2
    below = table < t2
    bracketed = below[0] & (table[-1] > t2)
    endpoint = np.where(below[0], hi, lo)
    start = np.full(len(t2), 1.0 / hi)
    floor = start.copy()
    cols = np.flatnonzero(bracketed)
    # the last table alpha whose residual lies below the target
    j = _TABLE_SIZE - 1 - np.argmax(below[::-1, cols], axis=0)
    r0, r1 = table[j, cols], table[j + 1, cols]
    frac = np.log(t2[cols] / r0) / np.log(r1 / r0)
    start[cols] = 1.0 / (alphas[j] * (alphas[j + 1] / alphas[j]) ** frac)
    floor[cols] = 1.0 / alphas[j + 1]
    return DiscrepancyBracket(start, floor, bracketed, endpoint)


def _discrepancy_root(s2, beta2, b_perp2, b2, t2, bracket=None):
    """Per-column root of ``|A x_alpha - b|^2 = t2`` on ``[1e-14 s1^2, s1^2]``.

    The table of :func:`_bracket` (formed here when ``bracket`` is None)
    gives each column Newton's start in ``mu = 1/alpha``, where ``g(mu) =
    |A x - b|^2 - t2`` is decreasing and convex.  The first step may land on
    either side of the root, so it is raised to the floor the table gives,
    the bracket's top alpha; by convexity it is then at or below the root,
    and the steps after it rise to the root.  A column stops for good on a
    step of at most ``4 eps mu``, which it does not take.  There ``mu
    g''/(2|g'|) < 1.5``, so a step of ``h mu`` leaves an error below ``1.5
    h^2 mu``, under rounding for ``h <= sqrt(eps/3)``; the next step then
    only follows rounding in ``g``, which moves the root by about ``eps
    t2/|g'|``.  A column where that is under ``4 eps mu``, ``t2 <= 4 mu
    |g'|``, stops after such a step without taking the next; any other
    steps on to the ``4 eps mu`` stop.  Its result does not depend on the
    other columns.  A column whose target is not reached inside the bracket
    gets the nearer endpoint.  Raises :class:`NoiseDominates` when a target
    reaches the data norm, where no fit is meaningful.

    Newton steps the columns in even parts of at most ``_NEWTON_COLUMNS``,
    so that its two work arrays stay small.  Once at most half of the
    columns it carries are still stepping, it gathers those and carries
    only them; a lone one takes a neighbour along, so that no gathered sum
    runs over a single column, which numpy would add up in another order.
    """
    if np.any(t2 >= b2):
        raise NoiseDominates(int(np.sum(t2 >= b2)), len(b2))
    if bracket is None:
        bracket = _bracket(s2, beta2, b_perp2, t2)
    alpha = np.empty(len(b2))
    edges = np.linspace(0, len(b2), -(-len(b2) // _NEWTON_COLUMNS) + 1).astype(int)
    for a, z in zip(edges[:-1], edges[1:]):
        alpha[a:z] = _newton(s2, beta2[:, a:z], b_perp2[a:z], t2[a:z],
                             bracket.columns(slice(a, z)))
    return alpha


def _newton(s2, beta2, b_perp2, t2, bracket):
    """The discrepancy alphas of a few columns from their bracket."""
    # g(mu) = res2 - t^2 is decreasing and convex, g' = -2 sum q^3 s^2 beta^2
    mu_all, carried = bracket.start.copy(), np.arange(len(t2))
    mu, active, beta2_c, b_perp2_c, t2_c = mu_all, bracket.bracketed, beta2, b_perp2, t2
    q, w = np.empty(beta2.shape), np.empty(beta2.shape)
    for k in range(_NEWTON_STEPS):
        live = np.flatnonzero(active)
        if not len(live):
            break
        if 2 * len(live) <= len(active) and len(active) > 2:
            if len(live) == 1:
                live = np.r_[live, 1 if live[0] == 0 else live[0] - 1]
            mu_all[carried] = mu
            q = w = None  # freed before the gathered copies are made
            carried = carried[live]
            mu, active = mu_all[carried], active[live]
            beta2_c, b_perp2_c, t2_c = beta2[:, carried], b_perp2[carried], t2[carried]
            q, w = np.empty(beta2_c.shape), np.empty(beta2_c.shape)
        alpha = 1.0 / mu
        np.add(s2, alpha, out=q)
        np.divide(alpha, q, out=q)
        np.multiply(q, q, out=w)
        g = np.einsum("ij,ij->j", w, beta2_c) + b_perp2_c - t2_c
        w *= q
        w *= s2
        slope = 2.0 * np.einsum("ij,ij->j", w, beta2_c)  # -g'
        step = np.divide(g, slope, out=np.zeros_like(g), where=active)
        if k == 0:
            np.maximum(mu + step, bracket.floor[carried], out=mu, where=active)
            continue
        moves = active & (step > 4.0 * np.finfo(float).eps * mu)
        # rounding in g moves the root by about eps t^2 / slope
        active = moves & ((step > _SETTLED * mu) | (t2_c > 4.0 * mu * slope))
        mu[moves] += step[moves]
    mu_all[carried] = mu
    return np.where(bracket.bracketed, 1.0 / mu_all, bracket.endpoint)


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
    beta2, b2 = np.abs(beta) ** 2, np.sum(np.abs(cols) ** 2, axis=0)
    filt, info = spectral_filter(svd, beta2, b2, reg, delta_abs)
    info["residual"] = _residual(svd.s, beta2, _orthogonal_part(svd, beta2, b2), info)
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
