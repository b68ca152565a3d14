import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    DatasetMatrix,
    DomainError,
    LabelDomain,
    ParseError,
    RankDeficient,
    ShapeError,
    UnsupportedLabels,
    least_squares_objective,
    load_libsvm,
    svm_hinge2_objective,
    synthetic_spectrum_matrix,
    synthetic_two_class,
)
from approxnewton import approximate_newton_run, problems, rng
from approxnewton.experiments import build_objective, default_config
from approxnewton.metrics import compute_mstar_reference
from approxnewton.problems import CurvatureMemo, SvmHinge2Objective
from approxnewton.solvers import SolverConfig

from conftest import fd_gradient, fd_hessian_vector, per_sample_hessian

EPS = np.finfo(float).eps
# L / sigma of the sketch_sweep problem (decay 1.2, d = 54), the most
# ill-conditioned one the experiments build
SKETCH_SWEEP_KAPPA = 1.2**106


def planted(n, d, smax, smin, seed):
    """An n x d matrix with singular values spaced geometrically from smax
    down to smin, in seeded random bases."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    U, _ = np.linalg.qr(gen.standard_normal((n, d)))
    V, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return (U * np.geomspace(smax, smin, d)) @ V.T


def svd_calls():
    """A patch of `np.linalg.svd` that counts its calls."""
    return mock.patch("numpy.linalg.svd", side_effect=np.linalg.svd)


class TestLeastSquares:
    def test_identity_gradient(self):
        obj = least_squares_objective(np.eye(2), np.ones(2))
        np.testing.assert_allclose(obj.gradient(np.zeros(2)), [-1.0, -1.0])

    def test_one_newton_step_solves_quadratic(self):
        obj = least_squares_objective(np.eye(2), np.ones(2))
        gen = np.random.Generator(np.random.Philox(key=1))
        for _ in range(3):
            x = gen.standard_normal(2)
            step = np.linalg.solve(obj.full_hessian(x), obj.gradient(x))
            assert np.linalg.norm(obj.gradient(x - step)) < 1e-12

    def test_gradient_matches_finite_differences(self, ls_small):
        gen = np.random.Generator(np.random.Philox(key=2))
        x = gen.standard_normal(ls_small.d)
        g = ls_small.gradient(x)
        g_fd = fd_gradient(ls_small.value, x)
        np.testing.assert_allclose(g, g_fd, rtol=1e-6)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 10), st.integers(1, 50), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-8, 1.0, 1e3]))
    def test_gradient_from_gram_matches_residual_form(self, d, extra, key, offset):
        # (A^T A) x - A^T b against A^T (A x - b), with columns of unequal
        # scale and x at, near and far from the solution, where the
        # cancellation is worst; the tolerance is the rounding of the
        # products both forms are made of, for up to 60 rows
        gen = np.random.Generator(np.random.Philox(key=key))
        A = gen.standard_normal((d + extra, d)) * np.exp(gen.uniform(-3, 3, size=d))
        b = gen.standard_normal(d + extra) * 10.0 ** gen.uniform(-3, 3)
        x = np.linalg.lstsq(A, b)[0] + offset * gen.standard_normal(d)
        obj = least_squares_objective(A, b)
        gram, Atb = A.T @ A, A.T @ b
        tol = 64 * EPS * (np.linalg.norm(gram, 2) * np.linalg.norm(x)
                          + np.linalg.norm(Atb))
        assert np.linalg.norm(obj.gradient(x) - A.T @ (A @ x - b)) <= tol

    def test_value_matches_definition(self, ls_small):
        gen = np.random.Generator(np.random.Philox(key=3))
        x = gen.standard_normal(ls_small.d)
        A, b = ls_small._A, ls_small._b
        assert ls_small.value(x) == pytest.approx(0.5 * np.sum((A @ x - b) ** 2))

    def test_rank_deficiency_rejected(self):
        A = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            least_squares_objective(A, np.ones(4))

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, where, bad):
        A, b = np.eye(3), np.ones(3)
        (A if where == "A" else b)[1] = bad
        with pytest.raises(DomainError, match="NaN or Inf"):
            least_squares_objective(A, b)

    def test_hessian_constant_in_x(self, ls_small):
        gen = np.random.Generator(np.random.Philox(key=4))
        H1 = ls_small.full_hessian(gen.standard_normal(5))
        H2 = ls_small.full_hessian(gen.standard_normal(5))
        np.testing.assert_array_equal(H1, H2)

    def test_per_sample_mean_is_full_hessian(self, ls_small):
        x = np.zeros(ls_small.d)
        mean = sum(
            per_sample_hessian(ls_small, i, x) for i in range(ls_small.n)
        ) / ls_small.n
        H = ls_small.full_hessian(x)
        assert np.linalg.norm(mean - H) <= 1e-10 * np.linalg.norm(H)

    def test_hessian_factor_reproduces_hessian(self, ls_small):
        x = np.zeros(ls_small.d)
        B = ls_small.hessian_factor(x)
        H = ls_small.full_hessian(x)
        assert np.linalg.norm(B.T @ B - H) <= 1e-10 * np.linalg.norm(H)

    def test_bounds(self, ls_small):
        A = ls_small._A
        svals = np.linalg.svd(A, compute_uv=False)
        assert ls_small.sigma == pytest.approx(svals[-1] ** 2)
        assert ls_small.K == pytest.approx(
            ls_small.n * max(np.sum(A**2, axis=1))
        )
        assert ls_small.K >= ls_small.sigma


class TestSvmHinge2:
    def test_non_support_vector_contributes_nothing(self):
        # single point with margin 2: loss term and Hessian block vanish
        ds = DatasetMatrix(np.array([[2.0]]), np.array([1.0]))
        obj = svm_hinge2_objective(ds, C=1.0)
        x = np.array([1.0])  # b * <x, a> = 2
        assert obj.value(x) == pytest.approx(0.5)
        np.testing.assert_array_equal(per_sample_hessian(obj, 0, x), [[0.0]])
        np.testing.assert_allclose(obj.full_hessian(x), [[1.0]])

    def test_all_points_support_at_origin(self, svm_tiny):
        x = np.zeros(svm_tiny.d)
        assert svm_tiny.hessian_sample_pool(x).size == svm_tiny.n
        A = svm_tiny._A
        expected = np.eye(svm_tiny.d) + (svm_tiny.C / svm_tiny.n) * (A.T @ A)
        np.testing.assert_allclose(svm_tiny.full_hessian(x), expected)

    def test_term_root_scaled_by_its_own_pool_across_threads(self, svm_mid):
        # each thread hands out pools at its own x; a root must use the
        # support-set size at its x, also right after another x's pool
        gen = np.random.Generator(np.random.Philox(key=7))
        xs = [k * gen.standard_normal(svm_mid.d) for k in range(4)]
        sizes = [svm_mid.hessian_sample_pool(x).size for x in xs]
        assert len(set(sizes)) > 1
        idx = np.arange(5)

        def expected(k):
            return np.sqrt(svm_mid.C * sizes[k] / svm_mid.n) * svm_mid._A[idx]

        def work(k):
            for _ in range(20):
                svm_mid.hessian_sample_pool(xs[k])
                np.testing.assert_array_equal(
                    svm_mid.hessian_term_root(idx, xs[k]), expected(k)
                )
                other = (k + 1) % len(xs)
                np.testing.assert_array_equal(
                    svm_mid.hessian_term_root(idx, xs[other]), expected(other)
                )
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, k) for k in range(len(xs))]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_gradient_matches_finite_differences_off_kink(self, svm_tiny):
        gen = np.random.Generator(np.random.Philox(key=6))
        checked = 0
        while checked < 5:
            x = gen.standard_normal(svm_tiny.d)
            if svm_tiny.min_kink_distance(x) < 1e-4:
                continue
            np.testing.assert_allclose(
                svm_tiny.gradient(x), fd_gradient(svm_tiny.value, x), rtol=1e-6,
                atol=1e-9,
            )
            checked += 1

    def test_invalid_labels_rejected(self):
        ds = DatasetMatrix(np.ones((3, 2)), np.array([1.0, 2.0, -1.0]))
        with pytest.raises(LabelDomain):
            svm_hinge2_objective(ds)

    def test_nonpositive_c_rejected(self, svm_tiny):
        ds = DatasetMatrix(svm_tiny._A, svm_tiny._b)
        with pytest.raises(DomainError):
            svm_hinge2_objective(ds, C=0.0)

    def test_hessian_eigenvalues_at_least_one(self, svm_tiny):
        gen = np.random.Generator(np.random.Philox(key=7))
        for _ in range(5):
            H = svm_tiny.full_hessian(gen.standard_normal(svm_tiny.d))
            assert np.linalg.eigvalsh(H)[0] >= 1.0 - 1e-10

    def test_per_sample_mean_plus_regularizer_is_full(self, svm_tiny):
        gen = np.random.Generator(np.random.Philox(key=8))
        x = gen.standard_normal(svm_tiny.d)
        mean = sum(
            per_sample_hessian(svm_tiny, i, x) for i in range(svm_tiny.n)
        ) / svm_tiny.n
        H = mean + svm_tiny.regularizer_scale * np.eye(svm_tiny.d)
        full = svm_tiny.full_hessian(x)
        assert np.linalg.norm(H - full) <= 1e-10 * np.linalg.norm(full)

    def test_hessian_factor_reproduces_hessian(self, svm_tiny):
        gen = np.random.Generator(np.random.Philox(key=9))
        x = gen.standard_normal(svm_tiny.d)
        B = svm_tiny.hessian_factor(x)
        H = svm_tiny.full_hessian(x)
        assert np.linalg.norm(B.T @ B - H) <= 1e-10 * np.linalg.norm(H)


class TestSvmPointMemo:
    """One n x d margin pass per distinct x, for every run and thread on the
    objective; the memo changes no bit of what the runs compute."""

    DATA = synthetic_two_class(400, 8, seed=20, separation=3.0)
    CONFIGS = (
        SolverConfig(grad_tol=1e-10),
        SolverConfig(inner="cg", eps1=0.1, grad_tol=1e-10),
        SolverConfig(hessian_method="subsampled", sample_fraction=0.2,
                     max_iters=30, grad_tol=1e-10, seed=0),
        SolverConfig(hessian_method="subsampled", sample_fraction=0.2,
                     max_iters=30, grad_tol=1e-10, seed=1),
    )

    @staticmethod
    def count_margin_passes(monkeypatch, delay=0.0):
        passes = []
        margins = SvmHinge2Objective._margins

        def counted(obj, x):
            passes.append(x.tobytes())
            time.sleep(delay)
            return margins(obj, x)

        monkeypatch.setattr(SvmHinge2Objective, "_margins", counted)
        return passes

    @staticmethod
    def iterates(obj, cfg):
        xs = []
        trace = approximate_newton_run(obj, cfg, np.zeros(obj.d),
                                       on_step=lambda step: xs.append(step.x))
        return xs + [trace.x_final], trace

    def test_runs_from_zero_make_one_margin_pass_per_distinct_x(self, monkeypatch):
        passes = self.count_margin_passes(monkeypatch)
        obj = svm_hinge2_objective(self.DATA, C=50.0)
        visited = {np.zeros(obj.d).tobytes()}  # the bound L is taken at 0
        for cfg in self.CONFIGS[:1] + self.CONFIGS:  # exact Newton twice
            xs, trace = self.iterates(obj, cfg)
            assert trace.n_steps > 1
            visited.update(x.tobytes() for x in xs)
        assert sorted(passes) == sorted(visited)

    def test_threads_asking_at_one_x_make_one_margin_pass(self, monkeypatch):
        obj = svm_hinge2_objective(self.DATA, C=50.0)
        passes = self.count_margin_passes(monkeypatch, delay=0.05)
        x = np.full(obj.d, 0.1)
        start = threading.Barrier(4)

        def ask(_):
            start.wait(10)
            return obj.gradient(x)

        with ThreadPoolExecutor(max_workers=4) as pool:
            grads = list(pool.map(ask, range(4), timeout=30))
        assert passes == [x.tobytes()]
        assert all(g is grads[0] for g in grads)
        assert obj.memo.stats()["point"][:2] == (3, 1 + 1)  # and x = 0 at build

    def test_stress_one_pass_per_x_and_values_of_that_x(self, monkeypatch):
        # more threads than cores, switching every microsecond, each asking
        # for the same points in its own order: a point computed twice, or
        # a value handed out under another point's key, shows
        obj = svm_hinge2_objective(self.DATA, C=50.0)
        fresh = svm_hinge2_objective(self.DATA, C=50.0)
        gen = np.random.Generator(np.random.Philox(key=5))
        xs = [scale * gen.standard_normal(obj.d) for scale in (0.1, 0.3, 1.0) * 4]
        want = [(fresh.gradient(x), fresh.hessian_sample_pool(x), fresh.full_hessian(x))
                for x in xs]
        passes = self.count_margin_passes(monkeypatch)

        def work(seed):
            walk = np.random.Generator(np.random.Philox(key=seed))
            for k in walk.integers(0, len(xs), size=200):
                grad, pool, hessian = want[k]
                assert np.array_equal(obj.gradient(xs[k]), grad)
                assert np.array_equal(obj.hessian_sample_pool(xs[k]), pool)
                assert np.array_equal(obj.full_hessian(xs[k]), hessian)
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, seed) for seed in range(8)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(passes) == sorted(x.tobytes() for x in xs)

    def test_iterates_equal_a_fresh_objective_bit_for_bit(self):
        warm = svm_hinge2_objective(self.DATA, C=50.0)
        for cfg in self.CONFIGS:
            got, got_trace = self.iterates(warm, cfg)
            fresh = svm_hinge2_objective(self.DATA, C=50.0)
            want, want_trace = self.iterates(fresh, cfg)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            assert got_trace.grad_norms == want_trace.grad_norms

    def test_gradient_is_the_formula_at_x(self):
        obj = svm_hinge2_objective(self.DATA, C=50.0)
        x = np.random.Generator(np.random.Philox(key=3)).standard_normal(obj.d)
        A, b = self.DATA.rows, self.DATA.labels
        slack = np.maximum(0.0, 1.0 - b * (A @ x))
        want = x - (50.0 / obj.n) * (A.T @ (b * slack))
        for _ in range(2):  # a miss, then a hit
            assert obj.gradient(x).tobytes() == want.tobytes()
        assert np.array_equal(obj.hessian_sample_pool(x), np.flatnonzero(slack > 0))


class TestCurvatureBounds:
    """sigma and L from the d x d matrices the objectives form anyway."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 54),
        extra_rows=st.integers(0, 60),
        log_kappa=st.floats(0.0, np.log(SKETCH_SWEEP_KAPPA)),
        smax=st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_least_squares_bounds_from_gram_match_svd(
        self, d, extra_rows, log_kappa, smax, seed
    ):
        A = planted(d + extra_rows, d, smax, smax * np.exp(-log_kappa / 2), seed)
        svals = np.linalg.svd(A, compute_uv=False)
        with svd_calls() as svd:
            obj = least_squares_objective(A, np.zeros(A.shape[0]))
        assert svd.call_count == 0
        # the Gram squares the condition number, so sigma's relative error
        # grows like eps * kappa; L's stays at a few eps
        kappa = svals[0] ** 2 / svals[-1] ** 2
        assert obj.L == pytest.approx(svals[0] ** 2, rel=1e-13)
        rtol = max(1e-13, 50 * EPS * kappa)
        assert obj.sigma == pytest.approx(svals[-1] ** 2, rel=rtol)

    @pytest.mark.parametrize("smin", [None, 1e-13])
    def test_rank_deficient_still_rejected(self, smin):
        A = planted(40, 6, 1.0, smin or 1.0, seed=5)
        if smin is None:
            A[:, -1] = A[:, 0]  # exactly rank deficient
        with pytest.raises(RankDeficient):
            least_squares_objective(A, np.zeros(40))

    def test_gram_too_close_to_call_takes_the_svd(self):
        A = planted(40, 6, 1.0, 1e-11, seed=5)
        svals = np.linalg.svd(A, compute_uv=False)
        with svd_calls() as svd:
            obj = least_squares_objective(A, np.zeros(40))
        assert svd.call_count == 1
        assert obj.sigma == svals[-1] ** 2
        assert obj.L == svals[0] ** 2

    def test_builtin_problems_need_no_svd(self, tmp_path):
        for name in ("lipschitz_free", "sketch_sweep", "regularized_sweep"):
            problem = default_config(name, str(tmp_path)).problem
            with svd_calls() as svd:
                build_objective(problem)
            assert svd.call_count == 0, name

    def test_svm_l_bounds_every_hessian(self, svm_mid):
        smax = np.linalg.svd(svm_mid._A, compute_uv=False)[0]
        assert svm_mid.L == pytest.approx(
            1.0 + svm_mid.C * smax**2 / svm_mid.n, rel=1e-12
        )
        gen = np.random.Generator(np.random.Philox(key=13))
        for scale in (0.01, 0.1, 1.0):
            x = scale * gen.standard_normal(svm_mid.d)
            top = np.linalg.eigvalsh(svm_mid.full_hessian(x))[-1]
            assert top <= svm_mid.L * (1 + 1e-12)

    def test_svm_hessian_at_zero_uses_every_row_uncopied(self, svm_mid):
        rows = np.arange(svm_mid.n)
        A = svm_mid._A[rows]
        expected = np.eye(svm_mid.d) + (svm_mid.C / svm_mid.n) * (A.T @ A)
        H = svm_mid.full_hessian(np.zeros(svm_mid.d))
        np.testing.assert_array_equal(H, expected)

    def test_svm_hessian_at_zero_computed_once_for_bound_and_reference(
        self, monkeypatch
    ):
        computed = []
        get = CurvatureMemo.get

        def counting_get(memo, kind, key, compute):
            def counted():
                computed.append((kind, key))
                return compute()

            return get(memo, kind, key, counted)

        monkeypatch.setattr(CurvatureMemo, "get", counting_get)
        problem = {"kind": "two_class", "n": 400, "d": 8, "seed": 20,
                   "separation": 3.0, "C": 50.0}
        obj = build_objective(problem)
        compute_mstar_reference(obj, np.zeros(obj.d))
        every_row = np.packbits(np.ones(obj.n, dtype=bool)).tobytes()
        assert computed.count(("full_hessian", every_row)) == 1
        hits, misses, _ = obj.memo.stats()["full_hessian"]
        assert hits >= 1
        assert misses == len({key for kind, key in computed if kind == "full_hessian"})


class TestCalculusInvariants:
    """Directional-derivative and Hessian-vector checks on seeded pairs."""

    def test_directional_derivatives(self, ls_small, svm_tiny):
        for obj in (ls_small, svm_tiny):
            gen = np.random.Generator(np.random.Philox(key=11))
            done = 0
            while done < 20:
                x = gen.standard_normal(obj.d)
                v = gen.standard_normal(obj.d)
                v /= np.linalg.norm(v)
                if hasattr(obj, "min_kink_distance") and (
                    obj.min_kink_distance(x) < 1e-6
                ):
                    continue
                h = 1e-5
                fd = (obj.value(x + h * v) - obj.value(x - h * v)) / (2 * h)
                an = float(obj.gradient(x) @ v)
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))
                done += 1

    def test_hessian_vector_products(self, ls_small, svm_tiny):
        for obj in (ls_small, svm_tiny):
            gen = np.random.Generator(np.random.Philox(key=12))
            done = 0
            while done < 10:
                x = gen.standard_normal(obj.d)
                v = gen.standard_normal(obj.d)
                v /= np.linalg.norm(v)
                if hasattr(obj, "min_kink_distance") and (
                    obj.min_kink_distance(x) < 1e-4
                ):
                    continue
                hv = obj.full_hessian(x) @ v
                hv_fd = fd_hessian_vector(obj.gradient, x, v)
                assert np.linalg.norm(hv - hv_fd) <= 1e-4 * max(
                    1.0, np.linalg.norm(hv)
                )
                done += 1


class TestSyntheticSpectrum:
    def test_singular_values_exact(self):
        ds = synthetic_spectrum_matrix(100, 10, 1.5, seed=7)
        svals = np.linalg.svd(ds.rows, compute_uv=False)
        np.testing.assert_allclose(svals, 1.5 ** -np.arange(1, 11), rtol=1e-8)

    def test_single_column_condition_number_is_one(self):
        ds = synthetic_spectrum_matrix(5, 1, 1.7, seed=0)
        svals = np.linalg.svd(ds.rows, compute_uv=False)
        assert svals[0] / svals[-1] == pytest.approx(1.0)

    def test_wide_shape_rejected(self):
        with pytest.raises(ShapeError):
            synthetic_spectrum_matrix(5, 10, 1.2, seed=0)

    def test_decay_must_exceed_one(self):
        with pytest.raises(DomainError):
            synthetic_spectrum_matrix(10, 5, 1.0, seed=0)

    def test_deterministic(self):
        a = synthetic_spectrum_matrix(20, 4, 1.3, seed=3)
        b = synthetic_spectrum_matrix(20, 4, 1.3, seed=3)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_near_planted_solution(self):
        ds = synthetic_spectrum_matrix(200, 6, 1.1, seed=4)
        x_hat, *_ = np.linalg.lstsq(ds.rows, ds.labels, rcond=None)
        resid = ds.rows @ x_hat - ds.labels
        assert np.std(resid) < 5e-3  # noise level 1e-3


class TestTwoClass:
    def test_labels_are_signs(self):
        ds = synthetic_two_class(40, 3, seed=1)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}

    def test_shapes_validated(self):
        with pytest.raises(ShapeError):
            synthetic_two_class(1, 3, seed=1)

    @pytest.mark.parametrize("n", [7, 8])
    def test_rows_match_outer_product_shift_bit_for_bit(self, n):
        ds = synthetic_two_class(n, 5, seed=11, separation=1.7)
        gen = rng.generator(11)
        direction = gen.standard_normal(5)
        direction /= np.linalg.norm(direction)
        expected = gen.standard_normal((n, 5)) / np.sqrt(5)
        expected += np.outer(ds.labels * (1.7 / 2.0), direction)
        assert ds.rows.tobytes() == expected.tobytes()

    def test_build_holds_one_copy_of_the_rows(self):
        tracemalloc.start()
        try:
            ds = synthetic_two_class(4000, 50, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * ds.rows.nbytes


class TestLibsvmReader:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n")
        ds = load_libsvm(str(path))
        np.testing.assert_array_equal(ds.rows, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_two_class_mapping(self, tmp_path):
        path = tmp_path / "zeroone.txt"
        path.write_text("0 1:1\n1 1:2\n0 2:3\n")
        ds = load_libsvm(str(path))
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1:0.5\n1 nonsense\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(str(path))
        assert err.value.line == 2

    def test_multiclass_rejected_without_binarization(self, tmp_path):
        path = tmp_path / "multi.txt"
        path.write_text("1 1:1\n2 1:2\n3 1:3\n")
        with pytest.raises(UnsupportedLabels):
            load_libsvm(str(path))
        ds = load_libsvm(str(path), binarize_class=2)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])

    def test_dataset_invariants_reject_nan(self):
        with pytest.raises(DomainError):
            DatasetMatrix(np.array([[np.nan]]), np.array([1.0]))

    @pytest.mark.parametrize("where", ["first_row", "last_row", "last_label"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_in_any_block(self, where, bad):
        rows, labels = np.ones((20000, 50)), np.ones(20000)
        if where == "last_label":
            labels[-1] = bad
        else:
            rows[0 if where == "first_row" else -1, 7] = bad
        with pytest.raises(DomainError):
            DatasetMatrix(rows, labels)

    def test_finiteness_check_allocates_one_block(self):
        rows, labels = np.ones((20000, 50)), np.ones(20000)
        tracemalloc.start()
        try:
            DatasetMatrix(rows, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a boolean mask of one block, against 1 MB for the whole matrix
        assert peak <= problems._FINITE_BLOCK + 4096


_DATASET_DIR = os.environ.get("APPROXNEWTON_DATASETS", "")


@pytest.mark.skipif(
    not os.path.isfile(os.path.join(_DATASET_DIR, "mushrooms")),
    reason="mushrooms dataset not provided (set APPROXNEWTON_DATASETS)",
)
def test_mushrooms_shape():
    ds = load_libsvm(os.path.join(_DATASET_DIR, "mushrooms"))
    assert (ds.n, ds.d) == (8124, 112)


@pytest.mark.skipif(
    not os.path.isfile(os.path.join(_DATASET_DIR, "a9a")),
    reason="a9a dataset not provided (set APPROXNEWTON_DATASETS)",
)
def test_a9a_shape():
    ds = load_libsvm(os.path.join(_DATASET_DIR, "a9a"))
    assert (ds.n, ds.d) == (32561, 123)
