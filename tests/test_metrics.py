import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    DatasetMatrix,
    DomainError,
    InsufficientData,
    LeastSquaresObjective,
    ReferenceNotConverged,
    ShapeError,
    approximate_newton_run,
    check_spectral_sandwich,
    classify_rate,
    compute_mstar_reference,
    contraction_diagnostics,
    distance_bound_from_gradient,
    fill_mstar_norms,
    mstar_norm,
)
from approxnewton.metrics import (
    DIVERGED_CLASS,
    INCONCLUSIVE,
    LINEAR,
    QUADRATIC,
    SUPERLINEAR,
    MstarReference,
)
from approxnewton.solvers import IterationTrace, SolverConfig


def make_reference(matrix):
    return MstarReference(np.zeros(matrix.shape[0]), matrix,
                          np.linalg.cholesky(matrix, upper=True))


def trace_from_residuals(res, ref):
    """Synthetic trace whose reference-norm residuals equal `res`."""
    trace = IterationTrace(status="converged")
    hess_half = np.linalg.inv(ref.mstar_half)
    d = ref.x_star.shape[0]
    e = np.zeros(d)
    e[0] = 1.0
    for r in res:
        g = hess_half @ (r * e)
        trace.gradients.append(g)
        trace.grad_norms.append(float(np.linalg.norm(g)))
    trace.inner_residuals = [0.0] * (len(res) - 1)
    return trace


class TestReference:
    def test_least_squares_solves_normal_equations(self, ls_small):
        ref = compute_mstar_reference(ls_small, np.zeros(5))
        A, b = ls_small._A, ls_small._b
        expected = np.linalg.solve(A.T @ A, A.T @ b)
        np.testing.assert_allclose(ref.x_star, expected, rtol=1e-8)

    def test_svm_reference_gradient_tiny(self, svm_tiny):
        ref = compute_mstar_reference(svm_tiny, np.zeros(4))
        assert np.linalg.norm(svm_tiny.gradient(ref.x_star)) <= 1e-12

    def test_inverse_consistency(self, ls_tiny):
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        hess_star = ls_tiny.full_hessian(ref.x_star)
        resid = ref.mstar_half @ hess_star @ ref.mstar_half - np.eye(4)
        assert np.linalg.norm(resid) <= 1e-8

    def test_slow_newton_raises_with_status_and_tolerance(self, ls_tiny):
        class OverCurved(LeastSquaresObjective):
            # exact Newton on 1e3 times the Hessian contracts by 0.999 a step
            def full_hessian(self, x):
                return 1e3 * super().full_hessian(x)

        obj = OverCurved(DatasetMatrix(ls_tiny._A, ls_tiny._b))
        tol = 1e-13 * max(1.0, float(np.linalg.norm(obj.gradient(np.zeros(4)))))
        with pytest.raises(ReferenceNotConverged) as info:
            compute_mstar_reference(obj, np.zeros(4))
        assert "status 'max_iters'" in str(info.value)
        assert f"(tol {tol:.3e})" in str(info.value)

    def test_half_squares_to_inverse(self, ls_tiny):
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        np.testing.assert_allclose(
            ref.mstar_half @ ref.mstar_half,
            np.linalg.inv(ls_tiny.full_hessian(ref.x_star)),
            atol=1e-10,
        )


class TestMstarNorm:
    def test_identity_reference_is_euclidean(self):
        ref = make_reference(np.eye(3))
        v = np.array([3.0, 4.0, 0.0])
        assert mstar_norm(ref, v) == pytest.approx(5.0)

    def test_zero_vector(self):
        ref = make_reference(np.eye(3))
        assert mstar_norm(ref, np.zeros(3)) == 0.0

    def test_fill_is_mstar_norm_per_gradient_and_checks_shape(self):
        ref = make_reference(np.diag([1.0, 4.0, 9.0]))
        trace = trace_from_residuals([1.0, 0.5, 0.25], ref)
        vals = fill_mstar_norms(trace, ref)
        assert vals == [mstar_norm(ref, g) for g in trace.gradients]
        with pytest.raises(ShapeError, match="reference 2"):
            fill_mstar_norms(trace, make_reference(np.eye(2)))

    def test_matches_quadratic_form(self):
        gen = np.random.Generator(np.random.Philox(key=18))
        M = gen.standard_normal((6, 6))
        hess = M @ M.T + np.eye(6)
        ref = make_reference(hess)
        for _ in range(5):
            v = gen.standard_normal(6)
            inv = np.linalg.inv(hess)
            assert mstar_norm(ref, v) == pytest.approx(
                math.sqrt(v @ inv @ v), rel=1e-10
            )

    def test_norm_axioms(self):
        gen = np.random.Generator(np.random.Philox(key=19))
        M = gen.standard_normal((5, 5))
        ref = make_reference(M @ M.T + np.eye(5))
        for _ in range(10):
            u = gen.standard_normal(5)
            v = gen.standard_normal(5)
            c = float(gen.uniform(-3, 3))
            assert mstar_norm(ref, c * u) == pytest.approx(
                abs(c) * mstar_norm(ref, u), rel=1e-12, abs=1e-12
            )
            assert mstar_norm(ref, u + v) <= (
                mstar_norm(ref, u) + mstar_norm(ref, v) + 1e-12
            )

    def test_shape_mismatch(self):
        ref = make_reference(np.eye(3))
        with pytest.raises(ShapeError):
            mstar_norm(ref, np.ones(4))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 30),
        log_cond=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_norm_matches_inverse_square_root(self, d, log_cond, seed):
        gen = np.random.Generator(np.random.Philox(key=seed))
        Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        H = (Q * np.logspace(0.0, log_cond, d)) @ Q.T
        H = 0.5 * (H + H.T)
        v = gen.standard_normal(d)
        ref = MstarReference(np.zeros(d), H, np.linalg.cholesky(H, upper=True))
        assert mstar_norm(ref, v) == pytest.approx(
            float(np.linalg.norm(ref.mstar_half @ v)), rel=1e-8
        )
        w, V = np.linalg.eigh(H)
        assert ref.mstar_half.tobytes() == ((V / np.sqrt(w)) @ V.T).tobytes()

    def test_reference_holds_the_hessian_and_no_eigh(self, ls_tiny, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the reference ran an eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        assert ref.hessian is ls_tiny.full_hessian(ref.x_star)
        v = np.arange(1.0, 5.0)
        assert mstar_norm(ref, v) == pytest.approx(
            math.sqrt(v @ np.linalg.solve(ref.hessian, v)), rel=1e-12
        )


class TestClassifyRate:
    def setup_method(self):
        self.ref = make_reference(np.eye(2))

    def test_geometric_residuals_classify_linear(self):
        res = [0.5**t for t in range(40)]
        trace = trace_from_residuals(res, self.ref)
        report = classify_rate(trace, self.ref)
        assert report.classification == LINEAR
        assert report.rho == pytest.approx(0.5, rel=1e-10)

    def test_doubly_exponential_classifies_quadratic(self):
        # same family as r = 10^(-2^t), stretched so the window keeps >= 5
        # usable points above the residual floor
        res = [10 ** (-0.05 * 2**t) for t in range(10)]
        trace = trace_from_residuals(res, self.ref)
        report = classify_rate(trace, self.ref)
        assert report.classification == QUADRATIC

    def test_decreasing_ratios_classify_superlinear(self):
        ratios = [0.5 / (t + 1.0) for t in range(12)]
        res = [1.0]
        for q in ratios:
            res.append(res[-1] * q)
        trace = trace_from_residuals(res, self.ref)
        report = classify_rate(trace, self.ref)
        assert report.classification == SUPERLINEAR

    def test_scale_invariance(self):
        res = [0.7**t for t in range(30)]
        a = classify_rate(trace_from_residuals(res, self.ref), self.ref)
        scaled = [1e6 * r for r in res]
        b = classify_rate(trace_from_residuals(scaled, self.ref), self.ref)
        assert a.classification == b.classification == LINEAR
        assert a.rho == pytest.approx(b.rho, rel=1e-9)

    def test_short_trace_rejected(self):
        trace = trace_from_residuals([1.0, 0.5, 0.25], self.ref)
        with pytest.raises(InsufficientData):
            classify_rate(trace, self.ref)

    def test_diverged_status_short_circuits(self):
        trace = trace_from_residuals([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], self.ref)
        trace.status = "diverged"
        assert classify_rate(trace, self.ref).classification == DIVERGED_CLASS

    def test_erratic_residuals_inconclusive(self):
        res = [1.0, 0.01, 0.5, 0.004, 0.3, 0.001, 0.2, 0.0005, 0.1]
        trace = trace_from_residuals(res, self.ref)
        assert classify_rate(trace, self.ref).classification == INCONCLUSIVE

    def test_exact_newton_on_svm_superlinear_or_quadratic(self, svm_mid):
        ref = compute_mstar_reference(svm_mid, np.zeros(svm_mid.d))
        trace = approximate_newton_run(
            svm_mid, SolverConfig(max_iters=100, grad_tol=1e-10), np.zeros(svm_mid.d)
        )
        report = classify_rate(trace, ref)
        assert report.classification in (SUPERLINEAR, QUADRATIC)


class TestContractionDiagnostics:
    def test_least_squares_one_step(self, ls_tiny):
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        cfg = SolverConfig(hessian_method="exact", max_iters=5, grad_tol=1e-12)
        steps = []
        trace = approximate_newton_run(ls_tiny, cfg, np.ones(4), on_step=steps.append)
        xs = [step.x for step in steps]
        rows = contraction_diagnostics(ls_tiny, trace, xs, ref, eps0=0.0, eps1=0.0)
        assert rows[0].ratio <= 1e-6
        # constant Hessian: measured curvature drift is exactly zero
        assert rows[0].eta_measured == 0.0
        assert rows[0].nu_measured <= 1e-8

    def test_one_iterate_per_step_required(self, ls_tiny):
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        cfg = SolverConfig(hessian_method="exact", max_iters=5, grad_tol=1e-12)
        trace = approximate_newton_run(ls_tiny, cfg, np.ones(4))
        # the final iterate takes no step
        with pytest.raises(ShapeError):
            contraction_diagnostics(ls_tiny, trace, [np.ones(4), trace.x_final],
                                    ref, 0.1, 0.1)

    def test_bound_holds_on_certified_subsampled_run(self, svm_tiny):
        ref = compute_mstar_reference(svm_tiny, np.zeros(4))
        gen = np.random.Generator(np.random.Philox(key=555))
        x0 = ref.x_star + 0.05 * gen.standard_normal(4)
        cfg = SolverConfig(hessian_method="subsampled", sample_size=40,
                           inner="cg", eps1=0.1, max_iters=30, grad_tol=1e-12,
                           seed=7)
        steps = []
        trace = approximate_newton_run(svm_tiny, cfg, x0, on_step=steps.append)
        xs = [step.x for step in steps]
        rows = contraction_diagnostics(svm_tiny, trace, xs, ref, eps0=0.5, eps1=0.1)
        kappa = max(1.0, svm_tiny.L / svm_tiny.sigma)
        checked = 0
        for step, row in zip(steps, rows):
            sandwich = check_spectral_sandwich(
                step.H, svm_tiny.full_hessian(step.x), 0.5
            )
            certified = sandwich.holds and (
                step.inner.rel_residual <= 0.1 / kappa + 1e-12
            )
            if certified and not row.nu_flagged:
                assert row.within_bound
                checked += 1
        assert checked >= 3


class TestDistanceBound:
    def test_zero_gradient(self):
        assert distance_bound_from_gradient(0.0, 2.0, 1.0) == 0.0

    def test_identity_curvature(self):
        assert distance_bound_from_gradient(0.3, 1.0, 1.0) == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "grad_mstar, L, mu",
        [
            (0.3, 0.0, 1.0),
            (0.3, -1.0, 1.0),
            (0.3, 1.0, 0.0),
            (0.3, 1.0, -1.0),
            (-0.3, 1.0, 1.0),
            (math.nan, 1.0, 1.0),
            (0.3, math.nan, 1.0),
            (0.3, 1.0, math.nan),
            (0.0, math.inf, 1.0),
            (0.3, 1.0, math.inf),
        ],
    )
    def test_bad_values_rejected(self, grad_mstar, L, mu):
        with pytest.raises(DomainError):
            distance_bound_from_gradient(grad_mstar, L, mu)

    def test_bound_dominates_distance_along_trace(self, ls_tiny):
        ref = compute_mstar_reference(ls_tiny, np.zeros(4))
        cfg = SolverConfig(hessian_method="subsampled", sample_size=12,
                           max_iters=40, grad_tol=1e-10, seed=2)
        steps = []
        trace = approximate_newton_run(ls_tiny, cfg, np.ones(4), on_step=steps.append)
        fill_mstar_norms(trace, ref)
        xs = [step.x for step in steps] + [trace.x_final]
        assert len(xs) == len(trace.grad_mstar_norms)
        for x, r in zip(xs, trace.grad_mstar_norms):
            bound = distance_bound_from_gradient(r, ls_tiny.L, ls_tiny.sigma)
            assert np.linalg.norm(x - ref.x_star) <= bound + 1e-12
