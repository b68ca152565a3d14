"""Randomized sketching operators and the subspace-embedding checker.

Three operator families are supported:

* ``gaussian`` -- an s x m matrix S with i.i.d. N(0, 1/s) entries.  With
  s >= m only the m x m upper triangle T of S's QR factorization is drawn,
  by Bartlett's decomposition: entries above the diagonal i.i.d. N(0, 1/s),
  s * T_ii^2 ~ chi^2 with s - i degrees of freedom (i = 0..m-1), all
  independent.  T^T T = S^T S, whose Wishart law is all an embedding check
  or a sketched Hessian depends on, then costs O(m^2) draws in place of
  s * m.  With s < m the dense S is drawn,
* ``sparse_embedding`` -- one nonzero (+-1) per column, a count-sketch,
* ``leverage_score`` -- rows sampled with the leverage scores of a fixed
  matrix and rescaled by 1/sqrt(p_i * s); the scores come from a thin SVD
  (`leverage_scores`) or from a Cholesky factor (`factor_leverage_scores`).

An operator S is an eps-subspace embedding for A when ||S A x||^2 stays
within (1 +- eps) * ||A x||^2 for every x; equivalently the generalized
eigenvalues of (A^T S^T S A, A^T A) all lie in [1 - eps, 1 + eps].  The
checker computes that spectral form exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import rng
from .errors import DomainError, RankDeficient, ShapeError

GAUSSIAN = "gaussian"
SPARSE_EMBEDDING = "sparse_embedding"
LEVERAGE_SCORE = "leverage_score"
OBLIVIOUS_KINDS = (GAUSSIAN, SPARSE_EMBEDDING)
ALL_KINDS = (GAUSSIAN, SPARSE_EMBEDDING, LEVERAGE_SCORE)

# Empirical calibration of the "s = O(...)" sketch-size rules, chosen so the
# Monte-Carlo embedding suite succeeds on >= 95% of seeds (see README):
#   gaussian:          s = ceil(40 * d / eps^2)
#   leverage_score:    s = ceil(40 * d * ln(max(d, 2)) / eps^2)
#   sparse_embedding:  s = ceil(8 * d^2 / eps^2)
SIZE_CONSTANTS = {GAUSSIAN: 40.0, LEVERAGE_SCORE: 40.0, SPARSE_EMBEDDING: 8.0}

# One-tenth of the certification constants: sizes at which the median
# achieved deviation tracks eps itself instead of sitting far below it.
# Used when an accuracy schedule drives per-iteration sketch sizes.
TRACKING_CONSTANTS = {GAUSSIAN: 4.0, LEVERAGE_SCORE: 4.0, SPARSE_EMBEDDING: 0.8}

_RANK_TOL = 1e-12


@dataclass
class SketchOperator:
    """An s x m random linear map with kind-specific payload."""

    kind: str
    s: int
    m: int
    seed: int
    payload: dict

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise DomainError(f"unknown sketch kind {self.kind!r}")


@dataclass
class EmbeddingReport:
    holds: bool
    achieved_eps: float


def _sized(kind: str, d: int, eps: float, constants: dict) -> int:
    if kind not in ALL_KINDS:
        raise DomainError(f"unknown sketch kind {kind!r}")
    if d < 1 or not 0.0 < eps < 1.0:
        raise DomainError(f"need d >= 1 and eps in (0,1), got d={d}, eps={eps}")
    c = constants[kind]
    if kind == GAUSSIAN:
        raw = c * d / eps**2
    elif kind == LEVERAGE_SCORE:
        raw = c * d * math.log(max(d, 2)) / eps**2
    else:
        raw = c * d**2 / eps**2
    return int(math.ceil(raw))


def recommended_sketch_size(kind: str, d: int, eps: float) -> int:
    """Calibrated sketch size for an eps-subspace embedding of a d-column matrix."""
    return _sized(kind, d, eps, SIZE_CONSTANTS)


def tracking_sketch_size(kind: str, d: int, eps: float) -> int:
    """Sketch size whose median achieved deviation tracks eps (schedule use)."""
    return _sized(kind, d, eps, TRACKING_CONSTANTS)


def make_oblivious_sketch(kind: str, s: int, m: int, seed: int) -> SketchOperator:
    """Construct a data-oblivious (Gaussian or sparse-embedding) operator.

    A Gaussian operator with s >= m holds its Bartlett triangle as
    `payload["triangle"]`: the m x m upper-triangular T with T^T T equal in
    law to S^T S for S with i.i.d. N(0, 1/s) entries (see the module
    docstring).  With s < m it holds the dense s x m `payload["matrix"]`.
    """
    if kind not in OBLIVIOUS_KINDS:
        raise DomainError(f"kind must be one of {OBLIVIOUS_KINDS}, got {kind!r}")
    if s < 1 or m < 1:
        raise ShapeError(f"need s >= 1 and m >= 1, got s={s}, m={m}")
    gen = rng.generator(seed)
    if kind == GAUSSIAN and s >= m:
        payload = {"triangle": _bartlett_triangle(gen, s, m)}
    elif kind == GAUSSIAN:
        payload = {"matrix": gen.standard_normal((s, m)) / np.sqrt(s)}
    else:
        payload = {
            "rows": gen.integers(0, s, size=m),
            "signs": gen.integers(0, 2, size=m) * 2.0 - 1.0,
        }
    return SketchOperator(kind, s, m, seed, payload)


@functools.lru_cache(maxsize=16)  # every Gaussian step reads one
def strict_upper_mask(m: int) -> np.ndarray:
    """Read-only boolean mask of the entries above the diagonal of an m x m
    matrix, in row-major order."""
    mask = np.triu(np.ones((m, m), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _bartlett_triangle(gen: np.random.Generator, s: int, m: int) -> np.ndarray:
    """The R factor, scaled by 1/sqrt(s), of the QR of an s x m standard
    Gaussian matrix (s >= m): N(0, 1) above the diagonal and sqrt(chi^2_{s-i})
    on it, all independent."""
    T = np.zeros((m, m))
    T[strict_upper_mask(m)] = gen.standard_normal(m * (m - 1) // 2)
    np.fill_diagonal(T, np.sqrt(gen.chisquare(s - np.arange(m))))
    T /= np.sqrt(s)
    return T


def _check_full_column_rank(A: np.ndarray, svals: np.ndarray) -> None:
    """Raise RankDeficient unless the singular values svals of A certify
    full column rank.  An m x d matrix with m < d has only m of them."""
    if svals.size < A.shape[1]:
        raise RankDeficient(
            f"{A.shape[0]} x {A.shape[1]} matrix has fewer rows than columns"
        )
    if svals[-1] <= _RANK_TOL * svals[0]:
        raise RankDeficient(
            f"singular-value ratio {svals[-1] / svals[0]:.3e} below {_RANK_TOL:.0e}"
        )


def leverage_scores(A: np.ndarray) -> np.ndarray:
    """Exact leverage scores ||u_i||^2 / d of the rows of a full-rank A."""
    A = np.asarray(A, dtype=float)
    U, svals, _ = np.linalg.svd(A, full_matrices=False)
    _check_full_column_rank(A, svals)
    return np.einsum("ij,ij->i", U, U) / A.shape[1]


def factor_leverage_scores(B: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Leverage scores of B from an upper-triangular U with U^T U = B^T B:
    B U^-1 has orthonormal columns, so they are its squared row norms / d."""
    # numpy, not a scipy triangular solve: see `hessian_approx._cholesky`
    Q = B @ np.linalg.inv(U)
    return np.einsum("ij,ij->i", Q, Q) / B.shape[1]


def make_leverage_sketch(
    A: np.ndarray, s: int, seed: int, scores: np.ndarray | None = None
) -> SketchOperator:
    """Row-sampling operator with probabilities equal to the leverage scores of A.

    `scores` are the leverage scores of A when the caller already has them.
    """
    if s < 1:
        raise ShapeError(f"need s >= 1, got {s}")
    A = np.asarray(A, dtype=float)
    if scores is None:
        probs = leverage_scores(A)
    else:
        probs = np.asarray(scores, dtype=float)
        if probs.shape != (A.shape[0],):
            raise ShapeError(f"need {A.shape[0]} leverage scores, got {probs.shape}")
    probs = probs / probs.sum()  # exact normalization against rounding
    gen = rng.generator(seed)
    indices = gen.choice(A.shape[0], size=s, replace=True, p=probs)
    weights = 1.0 / np.sqrt(probs[indices] * s)
    payload = {"indices": indices, "weights": weights, "probs": probs}
    return SketchOperator(LEVERAGE_SCORE, s, A.shape[0], seed, payload)


def apply_sketch(S: SketchOperator, A: np.ndarray) -> np.ndarray:
    """Compute S @ A, or T @ A for a Gaussian operator held as its Bartlett
    triangle T: an m-row root whose Gram (T A)^T (T A) has the law of
    (S A)^T (S A)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != S.m:
        raise ShapeError(f"operator expects {S.m} rows, got matrix of shape {A.shape}")
    if S.kind == GAUSSIAN:
        if "triangle" in S.payload:
            return S.payload["triangle"] @ A
        return S.payload["matrix"] @ A
    if S.kind == SPARSE_EMBEDDING:
        # one nonzero per column: the CSC arrays are the payload itself
        mat = scipy.sparse.csc_matrix(
            (S.payload["signs"], S.payload["rows"], np.arange(S.m + 1)),
            shape=(S.s, S.m),
        )
        return np.asarray(mat @ A)
    return A[S.payload["indices"]] * S.payload["weights"][:, None]


def materialize(S: SketchOperator) -> np.ndarray:
    """Dense s x m matrix of the operator (small cases / diagnostics only);
    [T; 0] for a Gaussian operator held as its Bartlett triangle T, whose
    product with any A has the Gram of T A."""
    if S.kind == GAUSSIAN and "matrix" in S.payload:
        return S.payload["matrix"].copy()
    out = np.zeros((S.s, S.m))
    if S.kind == GAUSSIAN:
        out[: S.m] = S.payload["triangle"]
    elif S.kind == SPARSE_EMBEDDING:
        out[S.payload["rows"], np.arange(S.m)] = S.payload["signs"]
    else:
        out[np.arange(S.s), S.payload["indices"]] = S.payload["weights"]
    return out


def verify_subspace_embedding(
    S: SketchOperator, A: np.ndarray, eps: float
) -> EmbeddingReport:
    """Exact spectral check of the eps-subspace embedding property.

    Returns the largest one-sided deviation max(1 - lam_min, lam_max - 1) of
    the generalized eigenvalues lam of (A^T S^T S A, A^T A), and whether it
    is within eps.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    A = np.asarray(A, dtype=float)
    _check_full_column_rank(A, np.linalg.svd(A, compute_uv=False))
    SA = apply_sketch(S, A)
    gram = A.T @ A
    sketched_gram = SA.T @ SA
    lams = scipy.linalg.eigh(sketched_gram, gram, eigvals_only=True)
    achieved = float(max(1.0 - lams[0], lams[-1] - 1.0))
    return EmbeddingReport(holds=achieved <= eps, achieved_eps=achieved)
