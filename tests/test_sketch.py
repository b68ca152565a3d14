import numpy as np
import pytest
import scipy.sparse

from approxnewton import (
    DomainError,
    RankDeficient,
    ShapeError,
    apply_sketch,
    make_leverage_sketch,
    make_oblivious_sketch,
    recommended_sketch_size,
    verify_subspace_embedding,
)
from approxnewton.sketch import (
    ALL_KINDS,
    GAUSSIAN,
    LEVERAGE_SCORE,
    SPARSE_EMBEDDING,
    SketchOperator,
    leverage_scores,
    materialize,
)


def _make(kind, s, A, seed):
    if kind == LEVERAGE_SCORE:
        return make_leverage_sketch(A, s, seed)
    return make_oblivious_sketch(kind, s, A.shape[0], seed)


@pytest.fixture(scope="module")
def wide_matrix():
    gen = np.random.Generator(np.random.Philox(key=42))
    return gen.standard_normal((300, 10))


class TestConstruction:
    def test_gaussian_moments(self):
        # oracle: sample moments of the dense entries drawn when s < m
        S = make_oblivious_sketch(GAUSSIAN, 10, 1000, seed=0)
        entries = S.payload["matrix"].ravel()
        assert abs(entries.mean()) <= 1e-2
        assert entries.var() == pytest.approx(1.0 / 10, rel=0.10)

    def test_gaussian_below_m_keeps_dense_draw(self):
        S = make_oblivious_sketch(GAUSSIAN, 5, 20, seed=3)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        assert S.payload.keys() == {"matrix"}
        assert np.array_equal(S.payload["matrix"], gen.standard_normal((5, 20)) / np.sqrt(5))

    def test_gaussian_bartlett_law(self):
        # oracle: Bartlett's decomposition of the R factor of an s x m
        # N(0, 1/s) matrix, over 2000 seeded draws
        s, m, draws = 30, 8, 2000
        Ts = np.array([make_oblivious_sketch(GAUSSIAN, s, m, seed).payload["triangle"]
                       for seed in range(draws)])
        assert not np.tril(Ts, -1).any()
        i, j = np.triu_indices(m, 1)
        off = Ts[:, i, j]
        assert abs(off.mean()) <= 3e-3
        assert off.var() == pytest.approx(1.0 / s, rel=0.03)
        diag = np.arange(m)
        chi2 = s * Ts[:, diag, diag] ** 2
        np.testing.assert_allclose(chi2.mean(axis=0), s - diag, rtol=0.03)
        gram = np.einsum("kij,kil->jl", Ts, Ts) / draws
        np.testing.assert_allclose(gram, np.eye(m), atol=0.03)

    def test_sparse_one_nonzero_per_column(self):
        S = make_oblivious_sketch(SPARSE_EMBEDDING, 4, 6, seed=1)
        dense = materialize(S)
        counts = np.count_nonzero(dense, axis=0)
        np.testing.assert_array_equal(counts, np.ones(6))
        nz = dense[dense != 0]
        np.testing.assert_array_equal(np.abs(nz), np.ones(6))

    def test_deterministic_payload(self):
        for kind in (GAUSSIAN, SPARSE_EMBEDDING):
            a = make_oblivious_sketch(kind, 8, 20, seed=9)
            b = make_oblivious_sketch(kind, 8, 20, seed=9)
            for key in a.payload:
                np.testing.assert_array_equal(a.payload[key], b.payload[key])

    def test_zero_sizes_rejected(self):
        with pytest.raises(ShapeError):
            make_oblivious_sketch(GAUSSIAN, 0, 5, seed=0)
        with pytest.raises(ShapeError):
            make_oblivious_sketch(SPARSE_EMBEDDING, 5, 0, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            make_oblivious_sketch("hadamard", 4, 4, seed=0)


class TestLeverageScores:
    def test_orthonormal_rows_are_uniform(self):
        q, _ = np.linalg.qr(
            np.random.Generator(np.random.Philox(key=3)).standard_normal((6, 6))
        )
        scores = leverage_scores(q)
        np.testing.assert_allclose(scores, np.full(6, 1 / 6), atol=1e-12)

    def test_scaled_row_dominates(self):
        gen = np.random.Generator(np.random.Philox(key=4))
        A = gen.standard_normal((40, 5))
        A[17] *= 1000.0
        scores = leverage_scores(A)
        assert scores.argmax() == 17

    def test_scores_sum_to_one(self, wide_matrix):
        assert leverage_scores(wide_matrix).sum() == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficiency_rejected(self):
        A = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            make_leverage_sketch(A, 3, seed=0)

    def test_fewer_rows_than_columns_rejected(self):
        # Full row rank, deficient column rank: the thin SVD has only 3 values.
        A = np.random.Generator(np.random.Philox(key=7)).standard_normal((3, 6))
        with pytest.raises(RankDeficient):
            leverage_scores(A)

    def test_sample_weights(self, wide_matrix):
        S = make_leverage_sketch(wide_matrix, 7, seed=5)
        probs = S.payload["probs"]
        idx = S.payload["indices"]
        np.testing.assert_allclose(
            S.payload["weights"], 1.0 / np.sqrt(probs[idx] * 7)
        )


class TestApply:
    def test_identity_payload_roundtrip(self, wide_matrix):
        # explicit test double: a "gaussian" operator whose payload is I
        S = SketchOperator(GAUSSIAN, 300, 300, 0, {"matrix": np.eye(300)})
        np.testing.assert_array_equal(apply_sketch(S, wide_matrix), wide_matrix)

    def test_leverage_row_is_weighted_copy(self, wide_matrix):
        S = make_leverage_sketch(wide_matrix, 4, seed=6)
        out = apply_sketch(S, wide_matrix)
        i = S.payload["indices"][3]
        w = S.payload["weights"][3]
        np.testing.assert_allclose(out[3], w * wide_matrix[i])

    def test_dimension_mismatch(self, wide_matrix):
        S = make_oblivious_sketch(GAUSSIAN, 5, 299, seed=0)
        with pytest.raises(ShapeError):
            apply_sketch(S, wide_matrix)

    def test_matches_materialized_operator(self, wide_matrix):
        for kind in ALL_KINDS:
            S = _make(kind, 25, wide_matrix, seed=11)
            np.testing.assert_allclose(
                apply_sketch(S, wide_matrix),
                materialize(S) @ wide_matrix,
                atol=1e-12,
            )

    def test_bartlett_triangle_has_materialized_gram(self, wide_matrix):
        S = make_oblivious_sketch(GAUSSIAN, 400, 300, seed=11)
        dense = materialize(S)
        assert dense.shape == (400, 300) and not dense[300:].any()
        SA, dense_SA = apply_sketch(S, wide_matrix), dense @ wide_matrix
        assert SA.shape == (300, 10)
        np.testing.assert_allclose(SA.T @ SA, dense_SA.T @ dense_SA, rtol=1e-12)

    @pytest.mark.parametrize("s, m", [(1, 7), (25, 300), (432, 5000)])
    def test_sparse_embedding_bit_for_bit(self, s, m):
        # against the COO-built CSR product, which sums each row's terms in
        # the same column order; against the dense operator on integer
        # entries, whose sums are exact in any order
        gen = np.random.Generator(np.random.Philox(key=m))
        S = make_oblivious_sketch(SPARSE_EMBEDDING, s, m, seed=5)
        rows, signs = S.payload["rows"], S.payload["signs"]
        csr = scipy.sparse.csr_matrix((signs, (rows, np.arange(m))), shape=(s, m))
        A = gen.standard_normal((m, 6))
        assert np.array_equal(apply_sketch(S, A), csr @ A)
        A = gen.integers(-8, 9, size=(m, 6)).astype(float)
        assert np.array_equal(apply_sketch(S, A), materialize(S) @ A)

    def test_gaussian_norm_preservation_majority_of_seeds(self):
        # for each x, most seeds keep ||SAx||^2 within 50% of ||Ax||^2
        gen = np.random.Generator(np.random.Philox(key=12))
        A = gen.standard_normal((200, 5))
        xs = gen.standard_normal((100, 5))
        Ax = xs @ A.T
        base = np.sum(Ax**2, axis=1)
        hits = np.zeros(100)
        n_seeds = 15
        for seed in range(n_seeds):
            S = make_oblivious_sketch(GAUSSIAN, 6 * 5, 200, seed=seed)
            SA = apply_sketch(S, A)
            SAx = xs @ SA.T
            ratio = np.sum(SAx**2, axis=1) / base
            hits += (ratio >= 0.5) & (ratio <= 1.5)
        assert np.all(hits > n_seeds / 2)


class TestVerifyEmbedding:
    def test_identity_sketch_has_zero_deviation(self, wide_matrix):
        S = SketchOperator(GAUSSIAN, 300, 300, 0, {"matrix": np.eye(300)})
        report = verify_subspace_embedding(S, wide_matrix, eps=0.5)
        assert report.holds
        assert report.achieved_eps == pytest.approx(0.0, abs=1e-10)

    def test_doubled_identity_fails(self, wide_matrix):
        S = SketchOperator(GAUSSIAN, 300, 300, 0, {"matrix": 2.0 * np.eye(300)})
        report = verify_subspace_embedding(S, wide_matrix, eps=0.99)
        assert not report.holds
        assert report.achieved_eps == pytest.approx(3.0, rel=1e-10)

    def test_monte_carlo_success_rate(self, wide_matrix):
        # light version of the acceptance suite: 50 seeds, one kind
        s = recommended_sketch_size(GAUSSIAN, 10, 0.5)
        holds = sum(
            verify_subspace_embedding(
                make_oblivious_sketch(GAUSSIAN, s, 300, seed), wide_matrix, 0.5
            ).holds
            for seed in range(50)
        )
        assert holds >= 45

    def test_scale_equivariance(self, wide_matrix):
        for kind in ALL_KINDS:
            S = _make(kind, 60, wide_matrix, seed=13)
            a = verify_subspace_embedding(S, wide_matrix, 0.9).achieved_eps
            b = verify_subspace_embedding(S, 3.7 * wide_matrix, 0.9).achieved_eps
            assert a == pytest.approx(b, rel=1e-8)

    def test_rank_deficient_rejected(self):
        S = make_oblivious_sketch(GAUSSIAN, 4, 5, seed=0)
        with pytest.raises(RankDeficient):
            verify_subspace_embedding(S, np.ones((5, 2)), 0.5)

    def test_fewer_rows_than_columns_rejected(self):
        A = np.random.Generator(np.random.Philox(key=7)).standard_normal((3, 6))
        S = make_oblivious_sketch(GAUSSIAN, 40, 3, seed=0)
        with pytest.raises(RankDeficient):
            verify_subspace_embedding(S, A, 0.5)

    def test_mean_deviation_decreases_with_size(self, wide_matrix):
        d = wide_matrix.shape[1]
        for kind in ALL_KINDS:
            means = []
            for mult in (2, 4, 8, 16):
                vals = [
                    verify_subspace_embedding(
                        _make(kind, mult * d, wide_matrix, seed), wide_matrix, 0.9
                    ).achieved_eps
                    for seed in range(50)
                ]
                means.append(np.mean(vals))
            assert all(m1 >= m2 for m1, m2 in zip(means, means[1:])), (kind, means)


class TestSizeRules:
    def test_calibrated_constants(self):
        assert recommended_sketch_size(GAUSSIAN, 10, 0.5) == 1600
        assert recommended_sketch_size(SPARSE_EMBEDDING, 10, 0.5) == 3200
        # 40 * 10 * ln(10) / 0.25
        assert recommended_sketch_size(LEVERAGE_SCORE, 10, 0.5) == 3685

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            recommended_sketch_size(GAUSSIAN, 0, 0.5)
        with pytest.raises(DomainError):
            recommended_sketch_size(GAUSSIAN, 5, 1.5)
