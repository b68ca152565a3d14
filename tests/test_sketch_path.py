"""The sketch path's per-run decompositions of the Hessian factor.

The objective computes the leverage scores and the triangular QR factor R of
its Hessian factor B once per curvature key, and Gaussian sketches act on R
instead of B.  These tests check that the cached scores reproduce the
uncached sketch bit for bit, that R^T R = B^T B, that an SVM factor is
decomposed once per support set the runs visit, and that Gaussian
surrogates built from R and from B follow the same law.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    approximate_newton_run,
    check_spectral_sandwich,
    least_squares_objective,
    make_leverage_sketch,
    make_oblivious_sketch,
    sketched_hessian,
    svm_hinge2_objective,
    synthetic_two_class,
)
from approxnewton import sketch
from approxnewton.errors import ShapeError
from approxnewton.problems import CurvatureMemo
from approxnewton.sketch import (
    GAUSSIAN,
    LEVERAGE_SCORE,
    leverage_scores,
    triangular_factor,
)
from approxnewton.solvers import SolverConfig

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _gaussian(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


@st.composite
def tall_factors(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(d + 1, 60))
    return _gaussian(draw(st.integers(0, 2**32 - 1)), (n, d))


class TestLeverageScoresArgument:
    @PROPERTY
    @given(tall_factors(), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_given_scores_reproduce_payload_bit_for_bit(self, B, s, seed):
        plain = make_leverage_sketch(B, s, seed)
        given_scores = make_leverage_sketch(B, s, seed, scores=leverage_scores(B))
        assert plain.payload.keys() == given_scores.payload.keys()
        for key, value in plain.payload.items():
            assert np.array_equal(value, given_scores.payload[key]), key
            assert value.dtype == given_scores.payload[key].dtype

    def test_wrong_number_of_scores_rejected(self):
        B = _gaussian(1, (20, 3))
        with pytest.raises(ShapeError):
            make_leverage_sketch(B, 5, 0, scores=np.full(19, 1 / 19))


class TestTriangularFactor:
    @staticmethod
    def _check(B):
        R = triangular_factor(B)
        assert R.shape == (min(B.shape), B.shape[1])
        assert np.allclose(np.tril(R, -1), 0.0)
        gram = B.T @ B
        err = np.linalg.norm(R.T @ R - gram)
        assert err <= 1e-12 * np.linalg.norm(gram)

    @PROPERTY
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_gram_preserved_tall_and_wide(self, n, d, key):
        self._check(_gaussian(key, (n, d)))

    @PROPERTY
    @given(st.integers(2, 12), st.integers(2, 12), st.data())
    def test_gram_preserved_rank_deficient(self, n, d, data):
        rank = data.draw(st.integers(1, min(n, d) - 1))
        key = data.draw(st.integers(0, 2**32 - 1))
        B = _gaussian(key, (n, rank)) @ _gaussian(key + 1, (rank, d))
        assert np.linalg.matrix_rank(B) == rank
        self._check(B)


@pytest.fixture
def ls_problem():
    A = _gaussian(11, (200, 5))
    b = _gaussian(12, 200)
    return least_squares_objective(A, b)


def _count_decompositions(monkeypatch, name):
    seen = []
    original = getattr(sketch, name)

    def counted(B):
        seen.append(B)
        return original(B)

    monkeypatch.setattr(sketch, name, counted)
    return seen


_DECOMPOSITION = {LEVERAGE_SCORE: "leverage_scores", GAUSSIAN: "triangular_factor"}


@pytest.mark.parametrize("kind", [LEVERAGE_SCORE, GAUSSIAN])
class TestFactorMemo:
    def _config(self, kind):
        return SolverConfig(hessian_method="sketched", sketch_kind=kind,
                            sketch_size=60, max_iters=6, grad_tol=1e-300)

    def test_constant_factor_decomposed_once(self, monkeypatch, ls_problem, kind):
        seen = _count_decompositions(monkeypatch, _DECOMPOSITION[kind])
        trace = approximate_newton_run(ls_problem, self._config(kind),
                                       np.zeros(ls_problem.d))
        assert trace.n_steps == 6
        assert len(seen) == 1
        assert seen[0] is ls_problem.hessian_factor(None)

    def test_svm_decomposed_once_per_support_set(self, monkeypatch, kind):
        seen = _count_decompositions(monkeypatch, _DECOMPOSITION[kind])
        obj = svm_hinge2_objective(synthetic_two_class(120, 5, seed=4), C=4.0)
        obj.memo = CurvatureMemo(np.zeros(10**5))  # room for every support set
        keys = []
        for seed in range(3):
            cfg = replace(self._config(kind), seed=seed)
            steps = []
            approximate_newton_run(obj, cfg, np.zeros(obj.d), on_step=steps.append)
            keys += [obj.curvature_key(step.x) for step in steps]
        # the runs share the support set at 0 and part from there
        assert 1 < len(set(keys)) < len(keys)
        assert len(seen) == len(set(keys))


def test_gaussian_law_same_on_triangular_factor():
    """S B and S R give surrogates whose achieved sandwich deviations have
    one law: two-sample KS statistic below 0.16, the 0.1% critical value
    for 300 against 300 samples."""
    B = _gaussian(5, (400, 6)) * np.logspace(0, -2, 6)
    R = triangular_factor(B)
    hess = B.T @ B
    size = 24

    def deviation(F, seed):
        S = make_oblivious_sketch(GAUSSIAN, size, F.shape[0], seed)
        report = check_spectral_sandwich(sketched_hessian(F, S), hess, 0.5)
        return max(report.eps_lower, report.eps_upper)

    from_B = [deviation(B, seed) for seed in range(300)]
    from_R = [deviation(R, seed) for seed in range(300, 600)]
    assert scipy.stats.ks_2samp(from_B, from_R).statistic < 0.16
