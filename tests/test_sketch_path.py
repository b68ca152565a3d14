"""The sketch path's per-run decompositions of the Hessian.

The objective computes the leverage scores of its Hessian factor B once per
curvature key, and the memo keeps the upper Cholesky factor U of the Hessian
B^T B under the same key; Gaussian sketches act on U instead of B.  These
tests check that the cached scores reproduce the uncached sketch bit for
bit, that each is computed once per support set the runs visit, and that
Gaussian surrogates built from U and from B follow the same law.
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
    solvers,
    svm_hinge2_objective,
    synthetic_two_class,
)
from approxnewton.errors import ShapeError
from approxnewton.hessian_approx import exact_hessian
from approxnewton.problems import CurvatureMemo
from approxnewton.sketch import GAUSSIAN, LEVERAGE_SCORE, leverage_scores
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


@pytest.fixture
def ls_problem():
    A = _gaussian(11, (200, 5))
    b = _gaussian(12, 200)
    return least_squares_objective(A, b)


# the memo kind of the decomposition each sketch kind reads, and the
# memoized array its steps sketch
_DECOMPOSITION = {LEVERAGE_SCORE: "leverage_scores", GAUSSIAN: "hessian_cholesky"}
_SKETCHED = {LEVERAGE_SCORE: lambda obj, x: obj.hessian_factor(x),
             GAUSSIAN: lambda obj, x: exact_hessian(obj, x).factor}


def _computed(obj, kind):
    """How many times the memo computed the decomposition `kind` reads."""
    return obj.memo.stats()[_DECOMPOSITION[kind]][1]


def _sketched_arrays(monkeypatch):
    seen = []
    original = solvers.sketched_hessian

    def recorded(B, S):
        seen.append(B)
        return original(B, S)

    monkeypatch.setattr(solvers, "sketched_hessian", recorded)
    return seen


@pytest.mark.parametrize("kind", [LEVERAGE_SCORE, GAUSSIAN])
class TestFactorMemo:
    def _config(self, kind):
        return SolverConfig(hessian_method="sketched", sketch_kind=kind,
                            sketch_size=60, max_iters=6, grad_tol=1e-300)

    def test_constant_factor_decomposed_once(self, monkeypatch, ls_problem, kind):
        sketched = _sketched_arrays(monkeypatch)
        trace = approximate_newton_run(ls_problem, self._config(kind),
                                       np.zeros(ls_problem.d))
        assert trace.n_steps == 6
        assert _computed(ls_problem, kind) == 1
        memoized = _SKETCHED[kind](ls_problem, None)
        assert len(sketched) == 6 and all(B is memoized for B in sketched)

    def test_svm_decomposed_once_per_support_set(self, kind):
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
        assert _computed(obj, kind) == len(set(keys))


def _least_squares_at_zero():
    A = _gaussian(5, (400, 6)) * np.logspace(0, -2, 6)
    return least_squares_objective(A, _gaussian(6, 400)), np.zeros(6)


def _svm_off_zero():
    # the factor [sqrt(C/n) A_sv; I] of a partial support set, whose
    # identity rows weigh as much as the loss rows
    obj = svm_hinge2_objective(synthetic_two_class(400, 6, seed=8), C=12.0)
    x = -0.1 * obj.gradient(np.zeros(6))
    assert obj.hessian_sample_pool(x).size == 126
    return obj, x


@pytest.mark.parametrize("build", [_least_squares_at_zero, _svm_off_zero],
                         ids=["least_squares", "svm"])
def test_gaussian_law_same_on_cholesky_factor(build):
    """S B and S U give surrogates whose achieved sandwich deviations have
    one law: two-sample KS statistic below 0.16, the 0.1% critical value
    for 300 against 300 samples."""
    obj, x = build()
    B = obj.hessian_factor(x)
    U = exact_hessian(obj, x).factor
    hess = obj.full_hessian(x)
    size = 24

    def deviation(F, seed):
        S = make_oblivious_sketch(GAUSSIAN, size, F.shape[0], seed)
        report = check_spectral_sandwich(sketched_hessian(F, S), hess, 0.5)
        return max(report.eps_lower, report.eps_upper)

    from_B = [deviation(B, seed) for seed in range(300)]
    from_U = [deviation(U, seed) for seed in range(300, 600)]
    assert scipy.stats.ks_2samp(from_B, from_U).statistic < 0.16


def test_gaussian_steps_factor_nothing_beyond_the_memo(monkeypatch, ls_problem):
    """A Gaussian step at s >= d hands its surrogate the Cholesky factor
    T U of the Bartlett triangle T and the memoized factor U: the runs
    factor only the Hessian, once, and each handed factor is the one
    numpy's Cholesky finds for the surrogate."""
    cholesky = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda *a, **k: calls.append(1) or cholesky(*a, **k))
    surrogates = []
    for seed, size in ((0, 5), (1, 10), (2, 40)):
        cfg = SolverConfig(hessian_method="sketched", sketch_kind=GAUSSIAN,
                           sketch_size=size, max_iters=4, grad_tol=1e-300, seed=seed)
        approximate_newton_run(ls_problem, cfg, np.zeros(ls_problem.d),
                               on_step=lambda step: surrogates.append(step.H))
    assert len(surrogates) == 12
    assert len(calls) == 1 == ls_problem.memo.stats()["hessian_cholesky"][1]
    for H in surrogates:
        expected = cholesky(H.matrix, upper=True)
        assert np.linalg.norm(H.factor - expected) <= 1e-12 * np.linalg.norm(expected)
    assert len(calls) == 1
