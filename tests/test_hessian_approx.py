import numpy as np
import pytest

from approxnewton import (
    DomainError,
    NotPositiveDefinite,
    ShapeError,
    check_spectral_sandwich,
    epsilon0_newsamp,
    epsilon0_regularized,
    newsamp_hessian,
    sketched_hessian,
    subsampled_hessian,
    synthetic_spectrum_matrix,
    uniform_sample_size,
)
from approxnewton.hessian_approx import (
    epsilon0_newsamp_branches,
    epsilon0_regularized_branches,
)
from approxnewton.sketch import (
    GAUSSIAN,
    SketchOperator,
    make_oblivious_sketch,
    verify_subspace_embedding,
)
from conftest import per_sample_hessian


def identity_sketch(m):
    return SketchOperator(GAUSSIAN, m, m, 0, {"matrix": np.eye(m)})


class TestSketchedHessian:
    def test_identity_sketch_reproduces_gram(self, ls_small):
        B = ls_small.hessian_factor(np.zeros(5))
        H = sketched_hessian(B, identity_sketch(50))
        np.testing.assert_allclose(H.matrix, B.T @ B, atol=1e-12)

    def test_embedding_quality_bounds_sandwich(self, ls_small):
        # two-sided algebra: embedding deviation e gives sandwich <= e/(1-e)
        B = ls_small.hessian_factor(np.zeros(5))
        for seed in range(5):
            S = make_oblivious_sketch(GAUSSIAN, 400, 50, seed)
            e = verify_subspace_embedding(S, B, 0.99).achieved_eps
            assert e < 1.0
            report = check_spectral_sandwich(sketched_hessian(B, S), B.T @ B, 0.99)
            assert report.max_eps <= e / (1.0 - e) + 1e-9

    def test_sandwich_holds_at_calibrated_size(self):
        # oracle-computed size for eps0=0.5 on the ill-conditioned case; a
        # sketch of 4d rows is far too small for a certified sandwich here
        ds = synthetic_spectrum_matrix(2000, 54, 1.2, seed=7)
        B = ds.rows
        gram = B.T @ B
        holds = 0
        for seed in range(50):
            S = make_oblivious_sketch(GAUSSIAN, 40 * 54, 2000, seed)
            holds += check_spectral_sandwich(sketched_hessian(B, S), gram, 0.5).holds
        assert holds >= 45

    def test_shape_mismatch(self, ls_small):
        B = ls_small.hessian_factor(np.zeros(5))
        with pytest.raises(ShapeError):
            sketched_hessian(B, identity_sketch(49))


class TestSubsampledHessian:
    def test_exhaustive_reproduces_full(self, ls_tiny, svm_tiny):
        # every pool index once: the mean over the pool plus the regularizer
        # is the full Hessian the sampled builder estimates
        for obj in (ls_tiny, svm_tiny):
            x = 0.1 * np.ones(obj.d)
            pool = obj.hessian_sample_pool(x)
            R = obj.hessian_term_root(pool, x)
            H = R.T @ R / pool.size + obj.regularizer_scale * np.eye(obj.d)
            np.testing.assert_allclose(H, obj.full_hessian(x), atol=1e-10)

    def test_single_sample_is_scaled_outer_product(self, ls_tiny):
        x = np.zeros(4)
        H = subsampled_hessian(ls_tiny, x, size=1, seed=3)
        diffs = [
            np.linalg.norm(H.matrix - per_sample_hessian(ls_tiny, i, x))
            for i in range(ls_tiny.n)
        ]
        assert min(diffs) < 1e-12  # equals n * a_i a_i^T for the drawn i

    def test_monte_carlo_mean(self, ls_tiny):
        # frozen oracle value: 500-seed mean is within 5% Frobenius of the
        # full Hessian (measured 3.7%)
        x = np.zeros(4)
        acc = np.zeros((4, 4))
        for seed in range(500):
            acc += subsampled_hessian(ls_tiny, x, size=8, seed=seed).matrix
        H = ls_tiny.full_hessian(x)
        assert np.linalg.norm(acc / 500 - H) <= 0.05 * np.linalg.norm(H)

    def test_symmetric(self, ls_tiny):
        H = subsampled_hessian(ls_tiny, np.zeros(4), size=5, seed=1).matrix
        assert np.linalg.norm(H - H.T) <= 1e-12 * max(1.0, np.linalg.norm(H))

    def test_zero_size_rejected(self, ls_tiny):
        with pytest.raises(ShapeError):
            subsampled_hessian(ls_tiny, np.zeros(4), size=0, seed=0)

    def test_fraction_draws_its_share_of_the_pool(self, ls_tiny):
        # ceil(0.1 * 30) rows, the draw of the same size given as a count
        by_fraction = subsampled_hessian(ls_tiny, np.zeros(4), None, seed=4,
                                         fraction=0.1)
        by_size = subsampled_hessian(ls_tiny, np.zeros(4), 3, seed=4)
        assert by_fraction.meta == by_size.meta
        np.testing.assert_array_equal(by_fraction.matrix, by_size.matrix)

    def test_deterministic(self, ls_tiny):
        a = subsampled_hessian(ls_tiny, np.zeros(4), size=6, seed=9).matrix
        b = subsampled_hessian(ls_tiny, np.zeros(4), size=6, seed=9).matrix
        np.testing.assert_array_equal(a, b)


class TestRegularizedSubsampled:
    def test_full_sample_plus_alpha(self, ls_tiny, svm_tiny):
        for obj in (ls_tiny, svm_tiny):
            x = 0.1 * np.ones(obj.d)
            pool = obj.hessian_sample_pool(x)
            R = obj.hessian_term_root(pool, x)
            full = R.T @ R / pool.size + obj.regularizer_scale * np.eye(obj.d)
            np.testing.assert_allclose(full, obj.full_hessian(x), atol=1e-10)
            # the regularized surrogate is the subsampled one shifted by alpha
            H = subsampled_hessian(obj, x, size=30, seed=0, alpha=0.1)
            H_sub = subsampled_hessian(obj, x, size=30, seed=0)
            assert H.meta["alpha"] == 0.1
            np.testing.assert_allclose(
                H.matrix, H_sub.matrix + 0.1 * np.eye(obj.d), atol=1e-12
            )

    def test_alpha_dominates_in_the_limit(self, ls_tiny):
        x = np.zeros(4)
        alpha = 1e8
        H = subsampled_hessian(ls_tiny, x, size=5, seed=2, alpha=alpha)
        H_sub = subsampled_hessian(ls_tiny, x, size=5, seed=2)
        assert np.linalg.norm(H.matrix / alpha - np.eye(4)) <= (
            np.linalg.norm(H_sub.matrix) / alpha + 1e-12
        )

    def test_subtracting_alpha_recovers_subsampled(self, ls_tiny):
        x = np.zeros(4)
        H = subsampled_hessian(ls_tiny, x, size=7, seed=4, alpha=0.5)
        H_sub = subsampled_hessian(ls_tiny, x, size=7, seed=4)
        np.testing.assert_array_equal(H.matrix - 0.5 * np.eye(4), H_sub.matrix)

    def test_sandwich_level_predicted_from_measured_deviation(self, ls_tiny):
        # eigenvalue oracle against the closed-form sandwich level with beta
        # set to the measured deviation of the unregularized estimate
        x = np.zeros(4)
        full = ls_tiny.full_hessian(x)
        sigma = float(np.linalg.eigvalsh(full)[0])
        alpha = 0.5 * np.linalg.norm(full, 2)
        for seed in range(10):
            H_sub = subsampled_hessian(ls_tiny, x, size=60, seed=seed)
            beta = float(np.abs(np.linalg.eigvalsh(full - H_sub.matrix)).max())
            if beta >= alpha + sigma / 2:
                continue
            eps0 = epsilon0_regularized(alpha, beta, sigma)
            H = H_sub.matrix + alpha * np.eye(4)
            report = check_spectral_sandwich(H, full, eps0)
            assert report.max_eps <= eps0 + 1e-10

    def test_negative_alpha_rejected(self, ls_tiny):
        with pytest.raises(DomainError):
            subsampled_hessian(ls_tiny, np.zeros(4), 5, seed=0, alpha=-0.1)

    def test_minimum_eigenvalue_floor(self, ls_tiny):
        H = subsampled_hessian(ls_tiny, np.zeros(4), 3, seed=1, alpha=2.5)
        assert np.linalg.eigvalsh(H.matrix)[0] >= 2.5 - 1e-10


class TestNewsampHessian:
    def test_full_rank_keeps_matrix(self, ls_tiny):
        x = np.zeros(4)
        H_sub = subsampled_hessian(ls_tiny, x, size=6, seed=5)
        H = newsamp_hessian(ls_tiny, x, size=6, r=3, seed=5)
        np.testing.assert_allclose(H.matrix, H_sub.matrix, atol=1e-10)

    def test_rank_zero_gives_top_eigenvalue_identity(self, ls_tiny):
        x = np.zeros(4)
        H_sub = subsampled_hessian(ls_tiny, x, size=6, seed=5)
        lam1 = np.linalg.eigvalsh(H_sub.matrix)[-1]
        H = newsamp_hessian(ls_tiny, x, size=6, r=0, seed=5)
        np.testing.assert_allclose(H.matrix, lam1 * np.eye(4), atol=1e-10)

    def test_eigenvalue_pattern(self):
        # the eigenvalues become (top r, then the (r+1)-th repeated)
        gen = np.random.Generator(np.random.Philox(key=8))
        M = gen.standard_normal((8, 8))
        M = M @ M.T + 0.1 * np.eye(8)

        class FakeObj:
            n, d = 1, 8

            def hessian_sample_pool(self, x):
                return np.arange(1)

            def hessian_term_root(self, idx, x):
                return np.linalg.cholesky(M).T

            regularizer_scale = 0.0

        r = 3
        H = newsamp_hessian(FakeObj(), np.zeros(8), size=1, r=r, seed=0)
        w_base = np.linalg.eigvalsh(M)[::-1]
        expected = np.concatenate([w_base[:r], np.full(8 - r, w_base[r])])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(H.matrix)[::-1], expected, atol=1e-10
        )

    def test_floor_lifts_minimum_eigenvalue(self, ls_tiny):
        H_sub = subsampled_hessian(ls_tiny, np.zeros(4), size=6, seed=2)
        H = newsamp_hessian(ls_tiny, np.zeros(4), size=6, r=1, seed=2)
        w = np.linalg.eigvalsh(H.matrix)
        assert w[0] == pytest.approx(H.meta["eigenvalue_floor"], rel=1e-10)
        assert w[0] >= np.linalg.eigvalsh(H_sub.matrix)[0] - 1e-12

    def test_rank_out_of_range(self, ls_tiny):
        with pytest.raises(DomainError):
            newsamp_hessian(ls_tiny, np.zeros(4), size=5, r=4, seed=0)

    def test_rank_at_sample_rows_rejected(self, ls_tiny):
        # a root of s <= r rows leaves the bare regularizer as the (r+1)-th
        # eigenvalue: exactly 0 for least squares, not a usable floor
        for size, r in ((2, 2), (2, 3), (1, 1)):
            with pytest.raises(DomainError):
                newsamp_hessian(ls_tiny, np.zeros(4), size=size, r=r, seed=0)
        H = newsamp_hessian(ls_tiny, np.zeros(4), size=3, r=2, seed=0)
        assert H.meta["eigenvalue_floor"] > 0.0


class TestUniformSampleSize:
    def test_hand_evaluated_example(self):
        # 16 * log(2*2/0.5) = 16 * log 8 = 33.27 -> 34
        assert uniform_sample_size(1.0, 1.0, 2, 0.5, 1.0) == 34

    def test_doubling_k_quadruples(self):
        import math

        K, sig, d, delta, eps0 = 3.0, 1.2, 7, 0.3, 0.4
        raw = 16.0 * K**2 * math.log(2 * d / delta) / (sig**2 * eps0**2)
        assert uniform_sample_size(2 * K, sig, d, delta, eps0) == math.ceil(4 * raw)

    def test_beta_form_is_sigma_free(self):
        a = uniform_sample_size(5.0, 2.0, 4, 0.2, 1.0)
        b = uniform_sample_size(5.0, 2.0, 4, 0.2, 1.0)
        assert a == b
        import math

        assert a == math.ceil(16 * 25 * math.log(2 * 4 / 0.2) / 4.0)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            uniform_sample_size(0.0, 1.0, 2, 0.5, 0.5)
        with pytest.raises(DomainError):
            uniform_sample_size(1.0, 1.0, 2, 1.5, 0.5)
        with pytest.raises(DomainError):
            uniform_sample_size(1.0, 1.0, 2, 0.5, 1.5)


class TestSpectralSandwich:
    def test_equal_matrices(self, ls_tiny):
        H = ls_tiny.full_hessian(np.zeros(4))
        report = check_spectral_sandwich(H, H, 0.1)
        assert report.holds
        assert report.eps_lower == pytest.approx(0.0, abs=1e-10)
        assert report.eps_upper == pytest.approx(0.0, abs=1e-10)

    def test_halved_surrogate(self, ls_tiny):
        H = ls_tiny.full_hessian(np.zeros(4))
        report = check_spectral_sandwich(H / 2, H, 0.99)
        assert not report.holds
        assert report.eps_upper == pytest.approx(1.0, rel=1e-10)
        assert report.eps_lower == 0.0

    def test_formula_size_concentrates(self, ls_tiny):
        x = np.zeros(4)
        full = ls_tiny.full_hessian(x)
        size = uniform_sample_size(ls_tiny.K, ls_tiny.sigma, 4, 0.1, 0.5)
        holds = sum(
            check_spectral_sandwich(
                subsampled_hessian(ls_tiny, x, size, seed), full, 0.5
            ).holds
            for seed in range(30)
        )
        assert holds >= 27

    def test_non_spd_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            check_spectral_sandwich(-np.eye(3), np.eye(3), 0.5)
        with pytest.raises(NotPositiveDefinite):
            check_spectral_sandwich(np.eye(3), np.diag([1.0, -1.0, 1.0]), 0.5)


class TestClosedFormSandwichLevels:
    def test_regularized_matches_tail_floored_at_matched_alpha(self):
        # at alpha = beta + lam the regularized level equals the second
        # branch of the tail-floored level, exactly
        gen = np.random.Generator(np.random.Philox(key=21))
        for _ in range(50):
            beta = float(gen.uniform(0.01, 1.0))
            lam = float(gen.uniform(2.1 * beta, 5.0))
            sigma = float(gen.uniform(0.01, 2.0))
            reg = epsilon0_regularized(beta + lam, beta, sigma)
            _, news_lower = epsilon0_newsamp_branches(beta, lam, sigma)
            assert reg == pytest.approx(news_lower, abs=1e-12)

    def test_branch_values(self):
        up, low = epsilon0_regularized_branches(alpha=1.0, beta=0.5, sigma=2.0)
        assert up == pytest.approx((0.5 - 1.0) / (2.0 + 1.0 - 0.5))
        assert low == pytest.approx(1.5 / 3.5)
        up2, low2 = epsilon0_newsamp_branches(beta=0.5, lam_r1=2.0, sigma=1.0)
        assert up2 == pytest.approx(0.5 / 1.5)
        assert low2 == pytest.approx(3.0 / 4.0)

    def test_levels_below_one_inside_validity(self):
        gen = np.random.Generator(np.random.Philox(key=22))
        for _ in range(50):
            sigma = float(gen.uniform(0.05, 2.0))
            alpha = float(gen.uniform(0.05, 2.0))
            beta = float(gen.uniform(0.01, alpha + sigma / 2 - 1e-6))
            assert 0.0 < epsilon0_regularized(alpha, beta, sigma) < 1.0
            lam = float(gen.uniform(2.0 * beta + 1e-6, 6.0))
            assert 0.0 < epsilon0_newsamp(beta, lam, sigma) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            epsilon0_regularized(1.0, 3.1, 2.0)  # beta >= sigma + alpha
        with pytest.raises(DomainError):
            epsilon0_newsamp(2.0, 1.0, 1.0)  # beta >= lam
