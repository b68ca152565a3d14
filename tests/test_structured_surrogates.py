"""Property tests: every structured surrogate form against its dense reference.

The references are built the slow way, from per-sample Hessians of the same
draw and, for NewSamp, a full eigendecomposition, so they share no
arithmetic with the forms they check.  Roots of fewer than d rows take the
Woodbury form, roots of at least d rows the dense form, and NewSamp always
the floored-spectrum form, as does the gradient-descent surrogate `L I`;
the strategies cover both sides of d on least squares (no regularizer) and
the SVM (regularizer I).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    DomainError,
    NotPositiveDefinite,
    SvmHinge2Objective,
    gradient_descent_hessian,
    least_squares_objective,
    newsamp_hessian,
    sketched_hessian,
    solve_inner,
    subsampled_hessian,
    svm_hinge2_objective,
    synthetic_two_class,
)
from approxnewton import rng
from approxnewton.sketch import GAUSSIAN, make_oblivious_sketch, materialize
from conftest import per_sample_hessian

SOLVE_TOL = 1e-10  # relative residual of H.solve against the dense reference
MAX_COND = 1e4  # solves are checked where the reference is this well conditioned

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def problems(draw):
    """(objective, x, generator) for a small least-squares or SVM instance."""
    d = draw(st.integers(2, 10))
    n = draw(st.integers(d + 2, 4 * d + 4))
    seed = draw(st.integers(0, 2**16))
    gen = np.random.Generator(np.random.Philox(key=seed))
    if draw(st.booleans()):
        A = gen.standard_normal((n, d)) * draw(st.sampled_from([1e-2, 1.0, 30.0]))
        obj = least_squares_objective(A, gen.standard_normal(n))
        x = gen.standard_normal(d)
    else:
        C = draw(st.sampled_from([1.0, 10.0]))
        obj = svm_hinge2_objective(synthetic_two_class(n, d, seed), C=C)
        x = 0.3 * gen.standard_normal(d)
    return obj, x, gen


def reference_subsampled(obj, x, size, seed):
    """Pool share times the mean per-sample Hessian of the draw, plus the
    regularizer Hessian `regularizer_scale * I`."""
    pool = obj.hessian_sample_pool(x)
    loss = np.zeros((obj.d, obj.d))
    if pool.size:
        idx = pool[rng.generator(seed).integers(0, pool.size, size=size)]
        loss = sum(per_sample_hessian(obj, i, x) for i in idx) / size
    return pool.size / obj.n * loss + obj.regularizer_scale * np.eye(obj.d)


def reference_floored(M, r):
    w, V = np.linalg.eigh(M)  # ascending
    d = M.shape[0]
    w[: d - r] = w[d - r - 1]
    return (V * w) @ V.T


def well_conditioned(M):
    w = np.linalg.eigvalsh(M)
    return w[0] > 0 and w[-1] / w[0] < MAX_COND


def check_against(H, ref, gen):
    scale = max(1.0, np.abs(ref).max())
    np.testing.assert_allclose(H.matrix, ref, rtol=0, atol=1e-12 * scale)
    v = gen.standard_normal(ref.shape[0])
    np.testing.assert_allclose(
        H.matvec(v), ref @ v, rtol=0, atol=1e-12 * scale * np.abs(v).sum()
    )
    g = gen.standard_normal(ref.shape[0])
    if well_conditioned(ref):
        p = H.solve(g)
        assert np.linalg.norm(ref @ p - g) <= SOLVE_TOL * np.linalg.norm(g)
        inner = solve_inner(H, g, eps1=0.0, kappa=1.0)
        assert inner.rel_residual <= SOLVE_TOL
        assert np.linalg.norm(ref @ inner.p - g) <= SOLVE_TOL * np.linalg.norm(g)
        cg = solve_inner(H, g, eps1=0.1, kappa=1.0, mode="cg")
        if not cg.stalled:
            assert np.linalg.norm(ref @ cg.p - g) <= (0.1 + 1e-9) * np.linalg.norm(g)


@PROPERTY
@given(problems(), st.data())
def test_subsampled_matches_dense_reference(problem, data):
    obj, x, gen = problem
    size = data.draw(st.integers(1, 2 * obj.d), label="size")
    seed = data.draw(st.integers(0, 1000), label="seed")
    H = subsampled_hessian(obj, x, size, seed)
    ref = reference_subsampled(obj, x, size, seed)
    if size < obj.d and obj.regularizer_scale == 0.0:
        # rank-deficient and unshifted: there is nothing to solve with
        with pytest.raises(NotPositiveDefinite):
            H.solve(np.ones(obj.d))
        scale = max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(H.matrix, ref, rtol=0, atol=1e-12 * scale)
        return
    check_against(H, ref, gen)


@PROPERTY
@given(problems(), st.data())
def test_regularized_matches_dense_reference(problem, data):
    obj, x, gen = problem
    size = data.draw(st.integers(1, 2 * obj.d), label="size")
    seed = data.draw(st.integers(0, 1000), label="seed")
    ref = reference_subsampled(obj, x, size, seed)
    # alpha relative to the surrogate's scale keeps the reference well
    # conditioned, so every example checks its solve
    alpha = data.draw(st.floats(1e-3, 10.0), label="alpha") * np.linalg.norm(ref, 2)
    H = subsampled_hessian(obj, x, size, seed, alpha=alpha)
    check_against(H, ref + alpha * np.eye(obj.d), gen)


@PROPERTY
@given(problems(), st.data())
def test_newsamp_matches_floored_eigendecomposition(problem, data):
    obj, x, gen = problem
    size = data.draw(st.integers(1, 2 * obj.d), label="size")
    seed = data.draw(st.integers(0, 1000), label="seed")
    r = data.draw(st.integers(0, obj.d - 1), label="r")
    if r >= size:  # the root has `size` rows, too few to carry rank r
        with pytest.raises(DomainError):
            newsamp_hessian(obj, x, size, r, seed)
        return
    H = newsamp_hessian(obj, x, size, r, seed)
    ref = reference_floored(reference_subsampled(obj, x, size, seed), r)
    assert H.meta["eigenvalue_floor"] == pytest.approx(
        np.linalg.eigvalsh(ref)[0], abs=1e-10 * max(1.0, np.abs(ref).max())
    )
    check_against(H, ref, gen)


class ThreeRowPool(SvmHinge2Objective):
    """SVM whose subsampled Hessian draws from three fixed rows, so every
    sampled root has rank at most three."""

    def hessian_sample_pool(self, x):
        return np.arange(3)

    def hessian_term_root(self, indices, x):
        return np.sqrt(self.C * 3 / self.n) * self._A[indices]


def test_newsamp_on_a_root_of_rank_below_r():
    # 12 rows of rank 3 in d = 20, r = 5: the Gram R R^T has two kept
    # eigenvalues at rounding level, which no direction of the root stands
    # behind
    obj = ThreeRowPool(synthetic_two_class(40, 20, seed=5), C=1.0)
    x, gen = np.zeros(obj.d), np.random.Generator(np.random.Philox(key=4))
    H = newsamp_hessian(obj, x, size=12, r=5, seed=1)
    assert np.isfinite(H.U).all()
    np.testing.assert_allclose(H.U.T @ H.U, np.eye(H.U.shape[1]), rtol=0, atol=1e-12)
    ref = reference_floored(reference_subsampled(obj, x, 12, 1), 5)
    assert H.meta["eigenvalue_floor"] == pytest.approx(
        np.linalg.eigvalsh(ref)[0], rel=1e-12
    )
    assert well_conditioned(ref)  # so check_against also checks the solve
    check_against(H, ref, gen)


@PROPERTY
@given(problems(), st.data())
def test_sketched_matches_dense_reference(problem, data):
    obj, x, gen = problem
    B = obj.hessian_factor(x)
    s = data.draw(st.integers(1, 2 * obj.d), label="sketch size")
    S = make_oblivious_sketch(GAUSSIAN, s, B.shape[0], data.draw(st.integers(0, 1000)))
    H = sketched_hessian(B, S)
    SB = materialize(S) @ B
    ref = SB.T @ SB
    if s < obj.d:
        with pytest.raises(NotPositiveDefinite):
            H.solve(np.ones(obj.d))
        scale = max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(H.matrix, ref, rtol=0, atol=1e-12 * scale)
        return
    check_against(H, ref, gen)


@PROPERTY
@given(problems())
def test_gradient_descent_is_L_identity(problem):
    obj, _, gen = problem
    H = gradient_descent_hessian(obj)
    check_against(H, obj.L * np.eye(obj.d), gen)
    v = gen.standard_normal(obj.d)
    np.testing.assert_array_equal(H.solve(v), v / obj.L)
    np.testing.assert_array_equal(H.matvec(v), obj.L * v)
