"""Approximate-Hessian builders, sample-size rules, and the sandwich checker.

Every builder returns an `ApproxHessian`: a symmetric surrogate H for the
true Hessian, kept in the form it was built in so that `H.solve(g)` and
`H.matvec(v)` cost what the form allows (see `ApproxHessian`).  The quality
certificate used throughout is the two-sided spectral sandwich

    (1 - eps0) H <= hess F(x) <= (1 + eps0) H

which `check_spectral_sandwich` evaluates exactly through the generalized
eigenvalues of (hess F, H).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from . import rng
from .errors import DomainError, NotPositiveDefinite, ShapeError
from .problems import FiniteSumObjective
from .sketch import SketchOperator, apply_sketch, strict_upper_mask

EXACT = "exact"
SKETCHED = "sketched"
SUBSAMPLED = "subsampled"
NEWSAMP = "newsamp"
GRADIENT_DESCENT = "gradient_descent"
METHODS = (EXACT, SKETCHED, SUBSAMPLED, NEWSAMP, GRADIENT_DESCENT)


def _symmetrized(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _cholesky(M: np.ndarray) -> np.ndarray:
    # numpy and scipy each ship an OpenBLAS with its own thread pool, and the
    # gradient runs on numpy's: factoring with scipy would wake a second pool
    # at every step, whose idle workers then spin against numpy's for the
    # cores.  numpy's upper factor is scipy's bit for bit; it is kept in the
    # Fortran order `_cho_solve` reads, so no solve copies it.
    if not np.isfinite(M).all():
        raise NotPositiveDefinite("H has non-finite entries")
    try:
        return np.asfortranarray(np.linalg.cholesky(M, upper=True))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("H is not positive definite") from exc


def _cho_solve(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the `dpotrs` call `scipy.linalg.cho_solve` makes, bit for bit, without
    # its finite checks and its copy of the factor; a solve with one
    # right-hand side runs on one thread.  LAPACK's wrapper refuses an empty
    # system, whose solution is the empty b.
    return dpotrs(U, b)[0] if b.size else b


class ApproxHessian:
    """A symmetric surrogate Hessian H in the form it was built in, plus its
    construction metadata.

    Each form is a subclass: `DenseHessian` (the exact Hessian, and sampled
    or sketched surrogates whose root has at least d rows), `RootPlusShift`
    (`R^T R / k + c I` for roots of fewer than d rows) and `FlooredSpectrum`
    (NewSamp, and `L I` for gradient descent).  Each has `solve(g)`, which
    returns H^{-1} g, and `matvec(v)`, which returns H v without forming H,
    at the cost its form allows; `matrix` is the dense view, built on first
    use where the form is not dense.
    """

    def __init__(self, d: int, meta: dict | None = None):
        self.d = d
        self.meta = {} if meta is None else meta


class DenseHessian(ApproxHessian):
    """H = M, factored by Cholesky on the first solve: by `cholesky()`
    when given, a callable that returns M's upper Cholesky factor."""

    def __init__(self, M: np.ndarray, meta: dict | None = None, cholesky=None):
        super().__init__(M.shape[0], meta)
        self.matrix = M
        self._cholesky = cholesky or functools.partial(_cholesky, M)
        self._factor = None

    @property
    def factor(self) -> np.ndarray:
        """The upper Cholesky factor of M, made on first use."""
        if self._factor is None:
            self._factor = self._cholesky()
        return self._factor

    def matvec(self, v):
        return self.matrix @ v

    def solve(self, g):
        return _cho_solve(self.factor, g)


class RootPlusShift(ApproxHessian):
    """H = R^T R / k + c I for a root R with fewer rows than columns.

    Solved with the Woodbury identity
        H^{-1} g = (g - R^T (R R^T + k c I)^{-1} R g) / c,
    which factors a rows x rows matrix once: O(rows^2 d) per build and
    O(rows d) per solve.  A zero shift leaves H singular.
    """

    def __init__(self, R: np.ndarray, k: int, c: float, meta: dict | None = None):
        super().__init__(R.shape[1], meta)
        self.R, self.k, self.c = R, k, c
        self._factor = None

    def matvec(self, v):
        return self.R.T @ (self.R @ v) / self.k + self.c * v

    def solve(self, g):
        if self._factor is None:
            if self.c <= 0.0:
                raise NotPositiveDefinite(
                    f"H has rank {self.R.shape[0]} < d={self.d} and no positive shift"
                )
            K = self.R @ self.R.T
            K[np.diag_indices_from(K)] += self.k * self.c
            self._factor = _cholesky(K)
        inner = _cho_solve(self._factor, self.R @ g)
        return (g - self.R.T @ inner) / self.c

    @functools.cached_property
    def matrix(self):
        return _symmetrized(self.R.T @ self.R / self.k + self.c * np.eye(self.d))


class FlooredSpectrum(ApproxHessian):
    """H = U diag(lam) U^T + floor (I - U U^T) for orthonormal columns U:
    the top eigenpairs kept, every other eigenvalue lifted to `floor`.
    Solved in closed form at O(r d)."""

    def __init__(
        self, U: np.ndarray, lam: np.ndarray, floor: float, meta: dict | None = None
    ):
        super().__init__(U.shape[0], meta)
        self.U, self.lam, self.floor = U, lam, floor

    def matvec(self, v):
        Utv = self.U.T @ v
        return self.U @ (self.lam * Utv) + self.floor * (v - self.U @ Utv)

    def solve(self, g):
        if self.floor <= 0.0:
            raise NotPositiveDefinite(f"H has eigenvalue floor {self.floor:.3e}")
        Utg = self.U.T @ g
        return self.U @ (Utg / self.lam) + (g - self.U @ Utg) / self.floor

    @functools.cached_property
    def matrix(self):
        U = self.U
        tail = np.eye(self.d) - U @ U.T
        return _symmetrized((U * self.lam) @ U.T + self.floor * tail)


@dataclass
class SandwichReport:
    """Largest one-sided violations of the spectral sandwich at level eps0."""

    eps_lower: float
    eps_upper: float
    holds: bool
    target: float

    @property
    def max_eps(self) -> float:
        return max(self.eps_lower, self.eps_upper)


def _root_plus_shift(R: np.ndarray, k: int, c: float, meta: dict) -> ApproxHessian:
    """R^T R / k + c I: Woodbury form for a root of fewer than d rows, dense
    otherwise, where forming and factoring the d x d matrix is cheaper."""
    d = R.shape[1]
    if R.shape[0] < d:
        return RootPlusShift(R, k, c, meta)
    return DenseHessian(_symmetrized(R.T @ R / k + c * np.eye(d)), meta)


def exact_hessian(obj: FiniteSumObjective, x: np.ndarray) -> DenseHessian:
    """The full Hessian at x.  Its Cholesky factor is memoized like the
    Hessian, under the objective's curvature key, so the exact steps and
    the M* reference at one key factor it once."""
    M = obj.full_hessian(x)
    x = np.array(x)  # the key is read on the first solve, at x as it is now
    return DenseHessian(
        M, cholesky=lambda: obj.memoized("hessian_cholesky", x, lambda: _cholesky(M))
    )


def _is_cholesky_factor(R: np.ndarray) -> bool:
    """Whether R is square and upper triangular with a positive diagonal,
    so that it is the upper Cholesky factor of R^T R."""
    d = R.shape[1]
    return (R.shape[0] == d and R.diagonal().min() > 0
            and not R.T[strict_upper_mask(d)].any())


def sketched_hessian(B: np.ndarray, S: SketchOperator) -> ApproxHessian:
    """H = (S B)^T (S B) for a Hessian factor B with B^T B = hess F.

    A Gaussian operator held as its Bartlett triangle T sketches B to T B.
    When B is itself a Cholesky factor, such as the memoized one a Gaussian
    step passes, T B is upper triangular with a positive diagonal, so it is
    the Cholesky factor of H, and H is never factored.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != S.m:
        raise ShapeError(f"operator expects {S.m} rows, factor has shape {B.shape}")
    SB = apply_sketch(S, B)
    meta = {"sketch_kind": S.kind, "size": S.s, "seed": S.seed}
    if "triangle" in S.payload and _is_cholesky_factor(SB):
        R = np.asfortranarray(SB)
        return DenseHessian(_symmetrized(R.T @ R), meta, cholesky=lambda: R)
    return _root_plus_shift(SB, 1, 0.0, meta)


def _sampled_root(obj, x, size: int | None, seed: int, fraction: float | None):
    """Root R, divisor k and shift c of the subsampled Hessian R^T R / k + c I,
    with its metadata.  A `fraction`, when given, sets the size to
    max(1, ceil(fraction * pool size)) for the pool at x."""
    pool = obj.hessian_sample_pool(x)
    if fraction is not None:
        size = max(1, int(math.ceil(fraction * pool.size)))
    if size < 1:
        raise ShapeError(f"sample size must be >= 1, got {size}")
    c = float(obj.regularizer_scale)
    if pool.size == 0:
        idx = pool
    else:
        idx = pool[rng.generator(seed).integers(0, pool.size, size=size)]
    if idx.size:
        R = obj.hessian_term_root(idx, x)
    else:
        R = np.zeros((0, obj.d))
    meta = {"size": int(idx.size), "seed": seed}
    return R, max(idx.size, 1), c, meta


def subsampled_hessian(
    obj: FiniteSumObjective,
    x: np.ndarray,
    size: int | None,
    seed: int,
    alpha: float = 0.0,
    fraction: float | None = None,
) -> ApproxHessian:
    """Mean of `size` per-sample loss Hessians (uniform, with replacement)
    plus the objective's split-out regularizer Hessian `regularizer_scale * I`.
    A `fraction` in place of `size` draws that share of the pool at x.

    A positive `alpha` adds `alpha * I` on top, which guarantees
    lambda_min >= alpha: the regularized subsampled Hessian.
    """
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    x = np.asarray(x, dtype=float)
    R, k, c, meta = _sampled_root(obj, x, size, seed, fraction)
    meta["alpha"] = float(alpha)
    return _root_plus_shift(R, k, c + alpha, meta)


def newsamp_hessian(
    obj: FiniteSumObjective, x: np.ndarray, size: int | None, r: int, seed: int,
    fraction: float | None = None,
) -> ApproxHessian:
    """Subsampled Hessian with its eigenvalue tail floored.

    Every eigenvalue of the subsampled matrix beyond the r largest is
    replaced by the (r+1)-th largest, so the top-r curvature is kept and the
    tail is lifted to a common floor.  The eigenpairs come from an `eigh` of
    the sampled root's smaller Gram: R^T R, or R R^T with R^T mapping its
    eigenvectors to directions; a kept pair of rounding-level eigenvalue
    has no direction and is dropped, as its eigenvalue is the floor.  The
    rows bound the rank: r must be below both d and the number of rows, or
    the floor would be the bare regularizer.  `size` and `fraction` are as
    in `subsampled_hessian`.
    """
    if not 0 <= r < obj.d:
        raise DomainError(f"need 0 <= r < d={obj.d}, got r={r}")
    x = np.asarray(x, dtype=float)
    R, k, c, meta = _sampled_root(obj, x, size, seed, fraction)
    if r >= R.shape[0]:
        raise DomainError(
            f"rank r={r} needs a sampled root of more than r rows, got {R.shape[0]}"
        )
    wide = R.shape[0] < R.shape[1]
    w, Q = np.linalg.eigh(R @ R.T if wide else R.T @ R)
    w, Q = np.maximum(w[::-1], 0.0), Q[:, ::-1]  # descending
    lam = w / k + c
    floor = float(lam[r])
    kept = np.flatnonzero(w[:r] > w[0] * max(R.shape) * np.finfo(float).eps)
    V = R.T @ Q[:, kept] / np.sqrt(w[kept]) if wide else Q[:, kept]
    meta = dict(meta, rank=int(r), eigenvalue_floor=floor)
    return FlooredSpectrum(V, lam[kept], floor, meta)


def gradient_descent_hessian(obj: FiniteSumObjective) -> ApproxHessian:
    """H = L I for the objective's curvature bound L: a floored spectrum with
    no kept pairs, so the unit step -H^{-1} g is the gradient step -g / L."""
    L = float(obj.L)
    meta = {"eigenvalue_floor": L}
    return FlooredSpectrum(np.zeros((obj.d, 0)), np.zeros(0), L, meta)


def uniform_sample_size(
    K: float, sigma_or_beta: float, d: int, delta: float, eps0: float
) -> int:
    """Uniform-sampling size ceil(16 K^2 log(2d/delta) / (c^2 eps0^2)).

    `sigma_or_beta` is the strong-convexity floor in the plain rule; for the
    deviation-target form pass beta there and eps0 = 1.
    """
    if K <= 0 or sigma_or_beta <= 0 or d < 1:
        raise DomainError("K, sigma_or_beta must be positive and d >= 1")
    if not 0.0 < delta < 1.0 or not 0.0 < eps0 <= 1.0:
        raise DomainError(f"need delta in (0,1) and eps0 in (0,1], got {delta}, {eps0}")
    raw = 16.0 * K**2 * math.log(2.0 * d / delta) / (sigma_or_beta**2 * eps0**2)
    return int(math.ceil(raw))


def _require_spd(M: np.ndarray, label: str) -> None:
    if not np.allclose(M, M.T, atol=1e-8 * max(1.0, abs(M).max())):
        raise NotPositiveDefinite(f"{label} is not symmetric")
    try:
        np.linalg.cholesky(_symmetrized(M))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{label} is not positive definite") from exc


def check_spectral_sandwich(
    H: ApproxHessian | np.ndarray, trueH: np.ndarray, eps0: float
) -> SandwichReport:
    """Exact eigenvalue check of (1-eps) H <= trueH <= (1+eps) H.

    eps_lower / eps_upper are the violations of the two sides (clamped at
    zero); the report holds when their maximum is within eps0.
    """
    M = H.matrix if isinstance(H, ApproxHessian) else np.asarray(H, dtype=float)
    trueH = np.asarray(trueH, dtype=float)
    if M.shape != trueH.shape:
        raise ShapeError(f"shape mismatch {M.shape} vs {trueH.shape}")
    _require_spd(M, "H")
    _require_spd(trueH, "trueH")
    mus = scipy.linalg.eigh(_symmetrized(trueH), _symmetrized(M), eigvals_only=True)
    eps_lower = float(max(0.0, 1.0 - mus[0]))
    eps_upper = float(max(0.0, mus[-1] - 1.0))
    return SandwichReport(
        eps_lower=eps_lower,
        eps_upper=eps_upper,
        holds=max(eps_lower, eps_upper) <= eps0,
        target=eps0,
    )


# Closed-form sandwich levels predicted for the regularized and tail-floored
# subsampled constructions, as functions of the sampling deviation bound beta
# (||hess F - H_sub|| <= beta), the regularizer alpha or the (r+1)-th
# eigenvalue, and the strong-convexity floor sigma.


def epsilon0_regularized_branches(
    alpha: float, beta: float, sigma: float
) -> tuple[float, float]:
    if alpha <= 0 or beta <= 0 or sigma <= 0:
        raise DomainError("alpha, beta, sigma must be positive")
    if beta >= sigma + alpha:
        raise DomainError(
            f"formula needs beta < sigma + alpha, got beta={beta}, "
            f"sigma+alpha={sigma + alpha}"
        )
    upper = (beta - alpha) / (sigma + alpha - beta)
    lower = (alpha + beta) / (sigma + alpha + beta)
    return upper, lower


def epsilon0_regularized(alpha: float, beta: float, sigma: float) -> float:
    return max(epsilon0_regularized_branches(alpha, beta, sigma))


def epsilon0_newsamp_branches(
    beta: float, lam_r1: float, sigma: float
) -> tuple[float, float]:
    if beta <= 0 or lam_r1 <= 0 or sigma <= 0:
        raise DomainError("beta, lam_r1, sigma must be positive")
    if beta >= lam_r1:
        raise DomainError(f"formula needs beta < lam_r1, got {beta} >= {lam_r1}")
    upper = beta / (lam_r1 - beta)
    lower = (2.0 * beta + lam_r1) / (sigma + 2.0 * beta + lam_r1)
    return upper, lower


def epsilon0_newsamp(beta: float, lam_r1: float, sigma: float) -> float:
    return max(epsilon0_newsamp_branches(beta, lam_r1, sigma))
