"""The objectives' curvature memo: exact, read-only, bounded and shared.

A warm objective, one that has already evaluated other points, must return
what a freshly built objective returns at the same x, bit for bit, whatever
order the points and the methods are visited in.  The arrays it hands out
are read-only, the bytes it holds never exceed its data matrix, and the
Hessian and its factor are decomposed once per curvature key for every run
on the objective.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    approximate_newton_run,
    compute_mstar_reference,
    least_squares_objective,
    sketch,
    solvers,
    svm_hinge2_objective,
    synthetic_two_class,
)
from approxnewton.hessian_approx import exact_hessian
from approxnewton.problems import CurvatureMemo, SvmHinge2Objective
from approxnewton.solvers import SolverConfig

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

SVM_DATA = synthetic_two_class(80, 5, seed=3, separation=2.0)
LS_A = np.random.Generator(np.random.Philox(key=31)).standard_normal((60, 5))
LS_B = np.random.Generator(np.random.Philox(key=32)).standard_normal(60)
TERM_ROWS = np.array([0, 3, 3, 17])


def svm():
    return svm_hinge2_objective(SVM_DATA, C=4.0)


def least_squares():
    return least_squares_objective(LS_A, LS_B)


def leverage_scores(obj, x):
    """The scores a leverage step at x samples by: those of the Hessian
    factor, memoized under the curvature key as the step keeps them."""
    return obj.memoized("leverage_scores", x,
                        lambda: sketch.leverage_scores(obj.hessian_factor(x)))


# every array-valued quantity the memo stands behind, as a function of x
QUANTITIES = {
    "gradient": lambda obj, x: obj.gradient(x),
    "full_hessian": lambda obj, x: obj.full_hessian(x),
    "hessian_factor": lambda obj, x: obj.hessian_factor(x),
    "hessian_term_root": lambda obj, x: obj.hessian_term_root(TERM_ROWS, x),
    "leverage_scores": leverage_scores,
    "hessian_cholesky": lambda obj, x: exact_hessian(obj, x).factor,
}
SVM_QUANTITIES = dict(
    QUANTITIES,
    hessian_sample_pool=lambda obj, x: obj.hessian_sample_pool(x),
)
READ_ONLY = ("full_hessian", "hessian_factor", "leverage_scores",
             "hessian_cholesky", "hessian_sample_pool")


@st.composite
def visits(draw, quantities):
    """A walk over a few points, with repeats, each visit asking for the
    quantities in its own order.  Points are scaled Gaussians, so the SVM
    support set differs between them, and some are nudged copies of
    another, so two points can share a support set."""
    n_points = draw(st.integers(1, 4))
    gen = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32 - 1))))
    points = [draw(st.sampled_from([0.0, 0.3, 1.0, 3.0])) * gen.standard_normal(5)
              for _ in range(n_points)]
    points += [p * (1.0 + 1e-9) for p in points[: draw(st.integers(0, n_points))]]
    names = st.permutations(sorted(quantities))
    walk = st.lists(st.tuples(st.integers(0, len(points) - 1), names),
                    min_size=1, max_size=10)
    return [(points[i], order) for i, order in draw(walk)]


def _check_walk(build, quantities, walk):
    warm = build()
    for x, order in walk:
        fresh = build()
        for name in order:
            got, want = quantities[name](warm, x), quantities[name](fresh, x)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        assert warm.memo.nbytes <= warm.memo.max_bytes


class TestWarmEqualsFresh:
    @PROPERTY
    @given(visits(SVM_QUANTITIES))
    def test_svm(self, walk):
        _check_walk(svm, SVM_QUANTITIES, walk)

    @PROPERTY
    @given(visits(QUANTITIES))
    def test_least_squares(self, walk):
        _check_walk(least_squares, QUANTITIES, walk)

    def test_svm_hessian_shared_by_points_with_one_support_set(self):
        obj = svm()
        x = -obj.gradient(np.zeros(obj.d))  # a support set small enough to keep
        y = x * (1.0 + 1e-9)
        assert 0 < obj.hessian_sample_pool(x).size < obj.n / 2
        assert np.array_equal(obj.hessian_sample_pool(x), obj.hessian_sample_pool(y))
        assert obj.full_hessian(x) is obj.full_hessian(y)
        assert obj.hessian_factor(x) is obj.hessian_factor(y)


@pytest.mark.parametrize("build, quantities", [(svm, SVM_QUANTITIES),
                                               (least_squares, QUANTITIES)])
def test_handed_out_arrays_are_read_only(build, quantities):
    obj = build()
    x = np.full(5, 0.1)
    for name in READ_ONLY:
        if name not in quantities:
            continue
        value = quantities[name](obj, x)
        assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[0] = 1.0


def test_least_squares_keeps_caller_matrix_writable():
    A = LS_A.copy()
    obj = least_squares_objective(A, LS_B)
    assert A.flags.writeable
    assert np.shares_memory(obj.hessian_factor(None), A)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=25))
def test_bytes_held_never_exceed_data_matrix(keys):
    # 24 rows of 12 columns: each 12 x 12 Hessian is a third of the data
    # matrix, so the memo has to evict as the walk meets new support sets
    data = synthetic_two_class(24, 12, seed=1, separation=1.0)
    obj = svm_hinge2_objective(data, C=2.0)
    for key in keys:
        x = np.random.Generator(np.random.Philox(key=key)).standard_normal(12)
        obj.full_hessian(x)
        leverage_scores(obj, x)
        held = sum(nbytes for _, _, nbytes in obj.memo.stats().values())
        assert held == obj.memo.nbytes <= obj.memo.max_bytes == data.rows.nbytes


class TestCurvatureMemo:
    def test_least_recently_used_entry_goes_first(self):
        memo = CurvatureMemo(np.zeros(10))  # room for 80 bytes
        calls = []

        def value(name):
            def compute():
                calls.append(name)
                return np.zeros(4)  # 32 bytes
            return compute

        memo.get("k", "a", value("a"))
        memo.get("k", "b", value("b"))
        memo.get("k", "a", value("a"))  # hit: "b" is now the oldest
        memo.get("k", "c", value("c"))  # 96 bytes: "b" goes
        memo.get("k", "a", value("a"))
        memo.get("k", "b", value("b"))
        assert calls == ["a", "b", "c", "b"]
        assert memo.stats() == {"k": (2, 4, 64)}

    def test_entry_counts_its_own_value_only(self):
        # the factor the scores come from is counted once, in its own entry
        obj = svm()
        x = -obj.gradient(np.zeros(obj.d))  # a support set small enough to keep
        scores = leverage_scores(obj, x)
        stats = obj.memo.stats()
        assert stats["leverage_scores"][2] == scores.nbytes
        assert stats["hessian_factor"][2] == obj.hessian_factor(x).nbytes

    def test_entry_larger_than_bound_is_not_kept_and_evicts_nothing(self):
        memo = CurvatureMemo(np.zeros(2))
        memo.get("k", "small", lambda: np.zeros(1))
        large = memo.get("k", "large", lambda: np.zeros(3))
        assert not large.flags.writeable
        assert memo.stats() == {"k": (0, 2, 8)}
        assert memo.get("k", "large", lambda: np.ones(3))[0] == 1.0

    def test_concurrent_misses_compute_once(self):
        memo = CurvatureMemo(np.zeros(100))
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            release.wait(10)
            return np.arange(3.0)

        results = []
        threads = [threading.Thread(target=lambda: results.append(memo.get("k", 0, compute)))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while memo.stats().get("k", (0, 0, 0))[:2] != (3, 1):
            assert time.monotonic() < deadline, memo.stats()
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(calls) == 1 and len(results) == 4
        assert all(r is results[0] for r in results)

    def test_stress_keeps_byte_count_and_values(self):
        # more threads than cores, switching every microsecond, on a memo
        # that holds 4 of the 12 keys: a lost update of the byte count or
        # a value handed out under the wrong key shows
        memo = CurvatureMemo(np.zeros(16))

        def work(seed):
            gen = np.random.Generator(np.random.Philox(key=seed))
            for key in gen.integers(0, 12, size=400):
                value = memo.get("k", int(key), lambda k=int(key): np.full(4, float(k)))
                assert np.array_equal(value, np.full(4, float(key)))
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, seed) for seed in range(8)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)
        hits, misses, held = memo.stats()["k"]
        assert hits + misses == 8 * 400
        assert held == memo.nbytes <= memo.max_bytes

    def test_failed_compute_is_not_stored(self):
        memo = CurvatureMemo(np.zeros(100))

        def fail():
            raise np.linalg.LinAlgError("no")

        with pytest.raises(np.linalg.LinAlgError):
            memo.get("k", 0, fail)
        assert memo.nbytes == 0
        assert memo.get("k", 0, lambda: np.ones(2))[0] == 1.0


def _sketched_arrays(monkeypatch):
    seen = []
    original = solvers.sketched_hessian
    monkeypatch.setattr(solvers, "sketched_hessian",
                        lambda B, S: seen.append(B) or original(B, S))
    return seen


def _gaussian_config(seed, max_iters):
    return SolverConfig(hessian_method="sketched", sketch_kind="gaussian",
                        sketch_size=40, max_iters=max_iters, grad_tol=1e-300,
                        seed=seed)


# each sketch kind, the memo kind of the decomposition it reads, and the
# memoized array its steps sketch
SKETCH_DECOMPOSITIONS = [
    ("leverage_score", "leverage_scores", lambda obj: obj.hessian_factor(None)),
    ("gaussian", "hessian_cholesky", lambda obj: exact_hessian(obj, None).factor),
]


@pytest.mark.parametrize("kind, name, memoized", SKETCH_DECOMPOSITIONS,
                         ids=["leverage_score", "gaussian"])
def test_runs_on_one_objective_decompose_the_factor_once(monkeypatch, kind, name,
                                                         memoized):
    sketched = _sketched_arrays(monkeypatch)
    obj = least_squares()
    for seed in (0, 1):
        cfg = SolverConfig(hessian_method="sketched", sketch_kind=kind,
                           sketch_size=40, max_iters=3, grad_tol=1e-300, seed=seed)
        assert approximate_newton_run(obj, cfg, np.zeros(obj.d)).n_steps == 3
    assert obj.memo.stats()[name][1] == 1
    assert len(sketched) == 6 and all(B is memoized(obj) for B in sketched)


def test_svm_factor_at_zero_decomposed_once_across_runs():
    # every row is a support vector at 0, so the factor there is larger than
    # the data matrix and not kept; the scores and the Cholesky factor are,
    # under the key
    obj = svm()
    for kind in ("leverage_score", "gaussian"):
        for seed in range(3):
            cfg = SolverConfig(hessian_method="sketched", sketch_kind=kind,
                               sketch_size=40, max_iters=1, grad_tol=1e-300, seed=seed)
            assert approximate_newton_run(obj, cfg, np.zeros(obj.d)).n_steps == 1
    stats = obj.memo.stats()
    assert stats["leverage_scores"][1] == stats["hessian_cholesky"][1] == 1


def test_gaussian_sketch_never_builds_the_factor(monkeypatch):
    # the Gaussian path sketches the Hessian's Cholesky factor, so the
    # (n_sv + d) x d Hessian factor is never built
    built = []
    factor = SvmHinge2Objective.hessian_factor
    monkeypatch.setattr(SvmHinge2Objective, "hessian_factor",
                        lambda obj, x: built.append(1) or factor(obj, x))
    obj = svm()
    obj.memo = CurvatureMemo(np.zeros(10**5))  # room for every support set
    steps = sum(approximate_newton_run(obj, _gaussian_config(seed, 4),
                                       np.zeros(obj.d)).n_steps
                for seed in range(3))
    assert steps == 12
    assert built == []


def test_gaussian_sketch_keeps_decompositions_not_the_factor():
    # the Gaussian path never reads the Hessian factor, so the factor is
    # not stored, and cannot evict the Cholesky factors under the default
    # bound: the later runs find the one at x = 0
    obj = svm()
    for seed in range(3):
        cfg = _gaussian_config(seed, 4)
        warm = approximate_newton_run(obj, cfg, np.zeros(obj.d))
        fresh = approximate_newton_run(svm(), cfg, np.zeros(obj.d))
        assert warm.n_steps == 4
        assert warm.grad_norms == fresh.grad_norms
        assert np.array_equal(warm.x_final, fresh.x_final)
    stats = obj.memo.stats()
    assert stats["hessian_cholesky"][0] >= 2
    assert "hessian_factor" not in stats


def test_gaussian_runs_reuse_the_reference_cholesky():
    # the M* reference has factored the least-squares Hessian, whose one
    # curvature key every later step shares: a Gaussian step reads that
    # factor and decomposes nothing
    obj = least_squares()
    compute_mstar_reference(obj, np.zeros(obj.d))
    hits, misses, _ = obj.memo.stats()["hessian_cholesky"]
    steps = sum(approximate_newton_run(obj, _gaussian_config(seed, 3),
                                       np.zeros(obj.d)).n_steps
                for seed in range(2))
    assert steps == 6
    assert obj.memo.stats()["hessian_cholesky"][:2] == (hits + steps, misses)


def keeps_nothing():
    """A memo with room for no entry: every lookup computes."""
    return CurvatureMemo(np.empty(0))


def test_objective_without_memo_recomputes():
    obj = least_squares()
    obj.memo = keeps_nothing()
    calls = []

    def compute():
        calls.append(1)
        return np.arange(3.0)

    first, second = obj.memoized("k", None, compute), obj.memoized("k", None, compute)
    assert len(calls) == 2 and first is not second


@pytest.mark.parametrize("build", [least_squares, svm], ids=["ls", "svm"])
@pytest.mark.parametrize("cfg", [
    SolverConfig(max_iters=2, grad_tol=1e-300),
    SolverConfig(hessian_method="sketched", sketch_kind="leverage_score",
                 sketch_size=40, max_iters=2, grad_tol=1e-300, seed=0),
    _gaussian_config(0, 2),
], ids=["exact", "leverage_score", "gaussian"])
def test_runs_without_memo_equal_runs_with_one(cfg, build):
    bare = build()
    bare.memo = keeps_nothing()
    kept = approximate_newton_run(build(), cfg, np.zeros(5))
    run = approximate_newton_run(bare, cfg, np.zeros(5))
    assert run.n_steps == 2
    assert run.grad_norms == kept.grad_norms
    assert np.array_equal(run.x_final, kept.x_final)
    assert sum(held for _, _, held in bare.memo.stats().values()) == 0


def test_leverage_step_builds_the_factor_once():
    # every row is a support vector at 0, so the (n + d) x d factor is larger
    # than the data matrix and not kept: the step takes the scores from the
    # factor it already holds rather than building it again
    obj = svm()
    cfg = SolverConfig(hessian_method="sketched", sketch_kind="leverage_score",
                       sketch_size=40, max_iters=1, grad_tol=1e-300, seed=0)
    assert approximate_newton_run(obj, cfg, np.zeros(obj.d)).n_steps == 1
    assert obj.memo.stats()["hessian_factor"][:2] == (0, 1)
