"""Finite-sum objectives: least squares, hinge-2 SVM, and dataset utilities.

Objectives expose the average form F(x) = (1/n) * sum_i f_i(x) together with
per-sample derivatives, so that uniform subsampling of the f_i is unbiased.
Every value an objective returns is a pure function of x (and of the data
it was built on), and objectives are safe to evaluate concurrently.  Behind
them sits a bounded, thread-safe `CurvatureMemo`.  An objective exposes its
curvature (the Hessian, a factor B with B^T B equal to it, sampling hooks);
`memoized(kind, x, compute)` keeps what steps derive from it under the
`curvature_key` at x, computed once while held and handed out read-only.
Kinds: `full_hessian`, `hessian_factor`, `hessian_cholesky`,
`leverage_scores`, and the SVM's `point` (gradient and support set of each
x, keyed by the bytes of x).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import (
    DomainError,
    LabelDomain,
    ParseError,
    RankDeficient,
    ShapeError,
    UnsupportedLabels,
)

_RANK_TOL = 1e-12  # on the smallest singular value, so _RANK_TOL**2 on sigma
# the Gram's smallest eigenvalue stands in for the SVD's only when it clears
# both its rounding floor (d * eps * lambda_max) and _RANK_TOL**2 this many times
_GRAM_MARGIN = 1e4
_SYNTH_NOISE_STD = 1e-3
# entries the finiteness check of a dataset looks at in one pass
_FINITE_BLOCK = 1 << 16
# entries of support rows the SVM Hessian gathers at once (1,310 rows at
# d = 200), as fast as gathering all n_sv rows and an n_sv x d copy smaller
_GRAM_BLOCK = 1 << 18


def _all_finite(a: np.ndarray) -> bool:
    """`np.isfinite(a).all()` a block of rows at a time, so the check's
    mask is one block of `_FINITE_BLOCK` entries, not an n x d array."""
    rows = max(1, _FINITE_BLOCK // (a.size // a.shape[0]))
    return all(np.isfinite(a[i : i + rows]).all() for i in range(0, a.shape[0], rows))


@dataclass
class DatasetMatrix:
    """A dense data matrix with one sample vector per row plus targets."""

    rows: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float).ravel()
        if self.rows.ndim != 2 or self.rows.shape[0] < 1 or self.rows.shape[1] < 1:
            raise ShapeError(f"need a 2-d matrix with n,d >= 1, got {self.rows.shape}")
        if self.labels.shape[0] != self.rows.shape[0]:
            raise ShapeError(
                f"{self.labels.shape[0]} labels for {self.rows.shape[0]} rows"
            )
        if not _all_finite(self.rows) or not _all_finite(self.labels):
            raise DomainError("dataset contains NaN or Inf entries")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


class _Entry:
    """One memo slot: the value (a future while it is being computed) and
    the bytes it counts."""

    __slots__ = ("future", "nbytes")

    def __init__(self):
        self.future = Future()
        self.nbytes = 0


class CurvatureMemo:
    """Least-recently-used store of the curvature arrays one objective hands
    out, shared by every thread that evaluates it.

    Entries are keyed by a kind and a key.  A value is an array or a tuple
    of arrays, computed outside the lock by the first thread that asks for
    it; a thread that asks while it is being computed waits for that result
    instead of computing it again.  Values are handed out read-only rather
    than copied.  The bytes held are bounded by the objective's own data
    matrix: an entry counts the bytes of its arrays; an entry larger than
    `data.nbytes` is not kept, and the least recently used entries go once
    the total exceeds it.
    """

    def __init__(self, data: np.ndarray):
        self.max_bytes = data.nbytes
        self.nbytes = 0
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits: defaultdict[str, int] = defaultdict(int)
        self._misses: defaultdict[str, int] = defaultdict(int)

    def get(self, kind: str, key, compute):
        """The value stored under (kind, key), else `compute()`, stored."""
        slot = (kind, key)
        with self._lock:
            entry = self._entries.get(slot)
            hit = entry is not None
            if hit:
                self._entries.move_to_end(slot)
                self._hits[kind] += 1
            else:
                entry = self._entries[slot] = _Entry()
                self._misses[kind] += 1
        if hit:
            return entry.future.result()  # waits while another thread computes
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                if self._entries.get(slot) is entry:
                    del self._entries[slot]
            entry.future.set_exception(exc)
            raise
        arrays = value if isinstance(value, tuple) else (value,)
        for array in arrays:
            array.flags.writeable = False
        nbytes = sum(array.nbytes for array in arrays)
        with self._lock:
            # unless evicted while it was being computed
            if self._entries.get(slot) is entry:
                if nbytes > self.max_bytes:
                    del self._entries[slot]
                else:
                    entry.nbytes = nbytes
                    self.nbytes += nbytes
                    while self.nbytes > self.max_bytes:
                        _, evicted = self._entries.popitem(last=False)
                        self.nbytes -= evicted.nbytes
        entry.future.set_result(value)
        return value

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, bytes held) of every kind looked up so far."""
        with self._lock:
            held: defaultdict[str, int] = defaultdict(int)
            for (kind, _), entry in self._entries.items():
                held[kind] += entry.nbytes
            return {
                kind: (self._hits[kind], self._misses[kind], held[kind])
                for kind in sorted(self._hits.keys() | self._misses.keys())
            }


class FiniteSumObjective:
    """Base interface for F(x) = (1/n) * sum_i f_i(x) (+ optional regularizer).

    Concrete objectives provide the full derivatives and the sampling hooks
    (the roots of per-sample loss Hessians) used by the subsampled Hessian
    builders.  `K` bounds max_i ||hess f_i(x)||, `sigma` lower bounds the
    smallest eigenvalue of the full Hessian, and `L` upper bounds its
    largest eigenvalue.  `memo` holds what the objective's callers
    share, looked up through `memoized`.

    Every objective is built on a checked `DatasetMatrix`: the base holds
    its rows as a read-only view, not a copy, and its labels, and sizes
    the memo by those rows.
    """

    K: float
    sigma: float
    L: float

    def __init__(self, data: DatasetMatrix, name: str):
        self._A = data.rows.view()  # read-only without a copy
        self._A.flags.writeable = False
        self._b = data.labels
        self.n, self.d = data.rows.shape
        self.name = data.name or name
        self.memo = CurvatureMemo(self._A)

    # -- full derivatives ---------------------------------------------------
    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def full_hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_factor(self, x: np.ndarray) -> np.ndarray:
        """Matrix B with B.T @ B equal to the full Hessian; DomainError for
        an objective that has none, which then cannot be sketched."""
        name = type(self).__name__
        raise DomainError(f"{name} exposes no Hessian factor to sketch")

    def curvature_key(self, x: np.ndarray):
        """A key that is equal at two points exactly when the Hessian and
        its factor are equal there; the memo keeps every curvature array
        under it."""
        raise NotImplementedError

    def memoized(self, kind: str, x: np.ndarray, compute):
        """`compute()`, kept in the memo under `kind` and the curvature key
        at x."""
        return self.memo.get(kind, self.curvature_key(x), compute)

    # -- split-out regularizer ----------------------------------------------
    regularizer_scale: float = 0.0  # the regularizer Hessian is this times I

    # -- sampling hooks ------------------------------------------------------
    def hessian_sample_pool(self, x: np.ndarray) -> np.ndarray:
        """Indices the subsampled-Hessian builder draws from at this x."""
        return np.arange(self.n)

    def hessian_term_root(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Rows R such that R.T @ R / len(indices) is the unbiased sampled
        estimate of the loss part of the Hessian, for indices drawn uniformly
        from `hessian_sample_pool`."""
        raise NotImplementedError

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.d:
            raise ShapeError(f"x has dimension {x.shape[0]}, objective has d={self.d}")
        return x


class LeastSquaresObjective(FiniteSumObjective):
    """F(x) = 0.5 * ||A x - b||^2 with f_i(x) = (n/2) * (a_i.x - b_i)^2.

    The Hessian A.T @ A is constant in x and factors exactly as B = A; both
    are handed out read-only, so every caller shares one copy.  The gradient
    is (A.T @ A) x - A.T b from that Gram and A.T b, formed once, so it
    costs one d x d product and no pass over the n rows.  `sigma` and
    `L` are the extreme eigenvalues of that Gram.  `RankDeficient` is raised
    when the smallest singular value of A is at most `_RANK_TOL`, that is
    when sigma <= _RANK_TOL**2; where the Gram's rounding could decide that
    differently, both bounds come from a values-only SVD of A instead.
    """

    def __init__(self, data: DatasetMatrix):
        super().__init__(data, "least-squares")
        A = self._A
        self._hessian = A.T @ A
        self._hessian.flags.writeable = False
        eigs = np.linalg.eigvalsh(self._hessian)
        floor = max(self.d * np.finfo(float).eps * eigs[-1], _RANK_TOL**2)
        if not eigs[0] > _GRAM_MARGIN * floor:
            svals = np.linalg.svd(A, compute_uv=False)
            if svals[-1] <= _RANK_TOL:
                raise RankDeficient(
                    f"smallest singular value {svals[-1]:.3e} <= {_RANK_TOL:.0e}"
                )
            eigs = svals[::-1] ** 2
        self._Atb = A.T @ self._b
        self.sigma = float(eigs[0])
        self.L = float(eigs[-1])
        self.K = float(self.n * np.einsum("ij,ij->i", A, A).max())

    def value(self, x):
        x = self._check_x(x)
        r = self._A @ x - self._b
        return 0.5 * float(r @ r)

    def gradient(self, x):
        x = self._check_x(x)
        return self._hessian @ x - self._Atb

    def full_hessian(self, x):
        return self._hessian

    def hessian_factor(self, x):
        return self._A

    def curvature_key(self, x):
        return ()  # the Hessian is constant in x

    def hessian_term_root(self, indices, x):
        return np.sqrt(self.n) * self._A[indices]


class _SvmPoint(NamedTuple):
    gradient: np.ndarray
    support_bits: np.ndarray  # packed membership bits of the support set


class SvmHinge2Objective(FiniteSumObjective):
    """Primal linear SVM with squared hinge loss.

    F(x) = 0.5 * ||x||^2 + (C / 2n) * sum_i max(0, 1 - b_i <x, a_i>)^2.

    The loss Hessian only involves the support vectors SV(x) = {i : b_i
    <x, a_i> < 1}, so the full Hessian I + (C/n) * sum_{SV} a_i a_i^T is
    piecewise constant in x and not Lipschitz continuous.  The identity block
    from the ridge term is treated as a split-out regularizer: per-sample
    quantities cover the loss part only, and subsampling draws from the
    support-vector set.

    Everything a run reads at one x rests on one n x d pass for the
    margins, made once per distinct x for every run and thread: the memo
    keeps the gradient and the support set's membership bits under the
    bytes of x, and the sample pool, sampled root and Hessian at x are
    derived from them.  The n margins are not kept: at 64 times the
    bytes of the bits, one array per x would evict the Hessians.  `value`
    and `min_kink_distance` recompute them.  The Hessian, its Cholesky and
    B factors and B's leverage scores depend on the support set alone, and
    are memoized under it (its membership bits, the curvature key), so runs
    that revisit a set reuse them.
    """

    def __init__(self, data: DatasetMatrix, C: float = 1.0):
        if C <= 0:
            raise DomainError(f"C must be positive, got {C}")
        if not np.all(np.isin(data.labels, (-1.0, 1.0))):
            raise LabelDomain("labels must all be -1 or +1")
        super().__init__(data, "svm-hinge2")
        self.C = float(C)
        row_sq = np.einsum("ij,ij->i", self._A, self._A)
        self.sigma = 1.0
        self.K = float(1.0 + self.C * row_sq.max())
        # every row is a support vector at 0, so the Hessian there bounds the
        # Hessian at every x; it stays in the memo for the first steps at 0
        self.L = float(np.linalg.eigvalsh(self.full_hessian(np.zeros(self.d)))[-1])

    def _margins(self, x) -> np.ndarray:
        return self._b * (self._A @ x)

    def _at(self, x) -> _SvmPoint:
        """The gradient and support set at x, from the memo when another
        call has evaluated this x."""
        x = self._check_x(x)

        def compute():
            margins = self._margins(x)
            slack = np.maximum(0.0, 1.0 - margins)
            gradient = x - (self.C / self.n) * (self._A.T @ (self._b * slack))
            return _SvmPoint(gradient, np.packbits(margins < 1.0))

        return self.memo.get("point", x.tobytes(), compute)

    def min_kink_distance(self, x) -> float:
        """Smallest |1 - margin_i|; zero means x sits on a hinge kink."""
        return float(np.abs(1.0 - self._margins(self._check_x(x))).min())

    def value(self, x):
        x = self._check_x(x)
        slack = np.maximum(0.0, 1.0 - self._margins(x))
        return 0.5 * float(x @ x) + self.C / (2 * self.n) * float(slack @ slack)

    def gradient(self, x):
        return self._at(x).gradient

    def _support(self, point: _SvmPoint) -> np.ndarray:
        bits = np.unpackbits(point.support_bits, count=self.n).view(bool)
        support = np.flatnonzero(bits)
        support.flags.writeable = False
        return support

    def _support_size(self, point: _SvmPoint) -> int:
        return int(np.bitwise_count(point.support_bits).sum())

    def _support_gram(self, point: _SvmPoint) -> np.ndarray:
        """A_S^T A_S: on A itself when every row is in S, else summed in a
        fixed order over chunks of S gathered into one `_GRAM_BLOCK` buffer,
        so it depends on S alone and one chunk gives `A[S].T @ A[S]`."""
        if self._support_size(point) == self.n:
            return self._A.T @ self._A
        support = self._support(point)
        rows = max(1, _GRAM_BLOCK // self.d)
        buf = np.empty((min(rows, support.size), self.d))
        gram = np.zeros((self.d, self.d))
        for i in range(0, support.size, rows):
            chunk = buf[: min(rows, support.size - i)]
            np.take(self._A, support[i : i + rows], axis=0, out=chunk, mode="clip")
            gram += chunk.T @ chunk
        return gram

    def full_hessian(self, x):
        point = self._at(x)

        def compute():
            return np.eye(self.d) + (self.C / self.n) * self._support_gram(point)

        return self.memo.get("full_hessian", point.support_bits.tobytes(), compute)

    def hessian_factor(self, x):
        def compute():
            # [sqrt(C/n) A_S; I] in one allocation, the rows gathered into it
            # (mode="clip" writes `out` in place; the default buffers it)
            support = self._support(self._at(x))
            B = np.empty((support.size + self.d, self.d))
            sv = B[: support.size]
            np.take(self._A, support, axis=0, out=sv, mode="clip")
            sv *= np.sqrt(self.C / self.n)
            B[support.size :] = np.eye(self.d)
            return B

        return self.memoized("hessian_factor", x, compute)

    def curvature_key(self, x):
        return self._at(x).support_bits.tobytes()

    regularizer_scale = 1.0  # the ridge term 0.5 * ||x||^2

    def hessian_sample_pool(self, x):
        """Indices of the support vectors at x (margin strictly below 1)."""
        return self._support(self._at(x))

    def hessian_term_root(self, indices, x):
        n_sv = self._support_size(self._at(x))
        return np.sqrt(self.C * n_sv / self.n) * self._A[indices]


def least_squares_objective(A: np.ndarray, b: np.ndarray) -> LeastSquaresObjective:
    """Least-squares objective 0.5 * ||A x - b||^2 (A must have full column rank)."""
    return LeastSquaresObjective(DatasetMatrix(A, b))


def svm_hinge2_objective(data: DatasetMatrix, C: float = 1.0) -> SvmHinge2Objective:
    """Squared-hinge SVM objective on a {-1,+1}-labeled dataset."""
    return SvmHinge2Objective(data, C)


def synthetic_spectrum_matrix(n: int, d: int, decay: float, seed: int) -> DatasetMatrix:
    """Random n x d matrix with singular values decay^-1, ..., decay^-d.

    U and V are seeded random orthonormal bases, so the spectrum is exact by
    construction and the condition number is decay^(d-1).  Targets are
    A @ x_true plus Gaussian noise of standard deviation 1e-3 for a seeded
    x_true, keeping the least-squares optimum close to x_true.
    """
    if d < 1:
        raise ShapeError(f"d must be >= 1, got {d}")
    if n < d:
        raise ShapeError(f"need n >= d, got n={n}, d={d}")
    if decay <= 1.0:
        raise DomainError(f"decay must exceed 1, got {decay}")
    gen = rng.generator(seed)
    U, _ = np.linalg.qr(gen.standard_normal((n, d)))
    V, _ = np.linalg.qr(gen.standard_normal((d, d)))
    svals = decay ** -np.arange(1.0, d + 1.0)
    A = (U * svals) @ V.T
    x_true = gen.standard_normal(d)
    b = A @ x_true + _SYNTH_NOISE_STD * gen.standard_normal(n)
    return DatasetMatrix(A, b, name=f"synthetic-n{n}-d{d}-decay{decay:g}")


def synthetic_spiked_matrix(
    n: int,
    d: int,
    seed: int,
    n_heavy: int | None = None,
    heavy_scale: float = 0.3,
) -> DatasetMatrix:
    """Regression matrix whose top curvature direction is carried by a small
    group of heavy rows.

    The bulk rows are isotropic Gaussian; `n_heavy` rows (default n/20) are
    near-copies of one shared direction.  Uniform row subsampling then only
    observes the top direction when it happens to draw heavy rows, which
    makes the workable regularizer floor shrink as the sample size grows --
    the regime the regularized-subsampled sweep measures.
    """
    if d < 1 or n < d:
        raise ShapeError(f"need n >= d >= 1, got n={n}, d={d}")
    if n_heavy is None:
        n_heavy = max(1, n // 20)
    if not 0 < n_heavy < n:
        raise DomainError(f"need 0 < n_heavy < n, got {n_heavy}")
    gen = rng.generator(seed)
    bulk = 0.8 * gen.standard_normal((n - n_heavy, d)) / np.sqrt(d)
    shared = gen.standard_normal(d)
    shared /= np.linalg.norm(shared)
    heavy = heavy_scale * (
        shared[None, :] + 0.15 * gen.standard_normal((n_heavy, d)) / np.sqrt(d)
    )
    A = np.vstack([bulk, heavy])
    x_true = gen.standard_normal(d)
    b = A @ x_true + _SYNTH_NOISE_STD * gen.standard_normal(n)
    return DatasetMatrix(A, b, name=f"spiked-n{n}-d{d}")


def synthetic_two_class(
    n: int, d: int, seed: int, separation: float = 2.0
) -> DatasetMatrix:
    """Seeded two-class Gaussian dataset with labels in {-1, +1}.

    Samples are unit-scale Gaussian vectors shifted by +-separation/2 along a
    random direction, which yields a healthy mix of support and non-support
    vectors for the squared-hinge SVM.
    """
    if n < 2 or d < 1:
        raise ShapeError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    gen = rng.generator(seed)
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    rows = gen.standard_normal((n, d))
    rows /= np.sqrt(d)
    # labels alternate +1, -1 by index, so the shift is added to the even
    # rows and taken from the odd ones in place, with no n x d temporary
    shift = (separation / 2.0) * direction
    rows[0::2] += shift
    rows[1::2] -= shift
    return DatasetMatrix(rows, labels, name=f"two-class-n{n}-d{d}")


def load_libsvm(path: str, binarize_class: float | None = None) -> DatasetMatrix:
    """Read a whitespace-separated LIBSVM text file into a dense DatasetMatrix.

    Feature indices are 1-based; the dimension is the largest index present.
    Two-class label sets are mapped to {-1, +1} (smaller value to -1).  Files
    with more than two classes need `binarize_class`, which maps that class
    to +1 and everything else to -1.
    """
    raw_labels: list[float] = []
    entries: list[list[tuple[int, float]]] = []
    d = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise ParseError(f"bad label {parts[0]!r}", lineno) from exc
            feats = []
            for tok in parts[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise ParseError(f"bad feature token {tok!r}", lineno) from exc
                if idx < 1:
                    raise ParseError(f"feature index {idx} is not 1-based", lineno)
                feats.append((idx, val))
                d = max(d, idx)
            raw_labels.append(label)
            entries.append(feats)
    if not entries:
        raise ParseError("file contains no samples", 1)
    if d == 0:
        raise ParseError("no features anywhere in file", 1)

    rows = np.zeros((len(entries), d))
    for i, feats in enumerate(entries):
        for idx, val in feats:
            rows[i, idx - 1] = val

    labels = np.asarray(raw_labels)
    if binarize_class is not None:
        labels = np.where(labels == binarize_class, 1.0, -1.0)
    else:
        classes = np.unique(labels)
        if classes.size > 2:
            raise UnsupportedLabels(
                f"{classes.size} classes present; pass binarize_class to pick one"
            )
        if classes.size == 2 and not np.array_equal(classes, [-1.0, 1.0]):
            labels = np.where(labels == classes[0], -1.0, 1.0)
        elif classes.size == 1 and classes[0] not in (-1.0, 1.0):
            raise UnsupportedLabels(f"single class {classes[0]} is not -1 or +1")
    return DatasetMatrix(rows, labels, name=path)
