import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    DatasetMatrix,
    DomainError,
    FiniteSumObjective,
    NotPositiveDefinite,
    SvmHinge2Objective,
    approximate_newton_run,
    least_squares_objective,
    rng,
    solve_inner,
    subsampled_hessian,
    superlinear_schedule,
    svm_hinge2_objective,
    synthetic_two_class,
)
from approxnewton.hessian_approx import METHODS, RootPlusShift
from approxnewton.problems import CurvatureMemo
from approxnewton.sketch import ALL_KINDS
from approxnewton.solvers import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_GUARD,
    METHOD_SETTINGS,
    RANDOMIZED_METHODS,
    SCHEDULE_LOG_DECAY,
    SURROGATE_SETTINGS,
    SolverConfig,
    condition_bound,
)
from conftest import NanAfterFirstGradient

# a valid value other than the default for every surrogate setting
SETTING_VALUES = {
    "sketch_kind": st.sampled_from(ALL_KINDS),
    "sketch_size": st.integers(1, 500),
    "eps0": st.floats(0.01, 0.9).filter(lambda v: v != 0.5),
    "eps0_schedule": st.just(SCHEDULE_LOG_DECAY),
    "sample_size": st.integers(1, 500),
    "sample_fraction": st.floats(0.01, 1.0),
    "alpha": st.floats(1e-6, 3.0),
    "rank": st.integers(0, 50),
}
# the settings each method cannot run without
NEEDS = {
    "sketched": {"sketch_kind": "gaussian"},
    "subsampled": {"sample_size": 20},
    "newsamp": {"sample_size": 20, "rank": 1},
}


class TestSolveInner:
    def test_identity_system_one_cg_step(self):
        g = np.array([1.0, -2.0, 0.5])
        result = solve_inner(np.eye(3), g, eps1=0.5, kappa=10.0, mode="cg")
        np.testing.assert_allclose(result.p, g, atol=1e-14)
        assert result.iterations == 1
        assert not result.stalled

    def test_zero_gradient(self):
        result = solve_inner(np.eye(3), np.zeros(3), eps1=0.1, kappa=5.0)
        np.testing.assert_array_equal(result.p, np.zeros(3))
        assert result.rel_residual == 0.0

    def test_cg_meets_relative_tolerance(self):
        gen = np.random.Generator(np.random.Philox(key=14))
        M = gen.standard_normal((20, 20))
        H = M @ M.T + np.eye(20)
        g = gen.standard_normal(20)
        result = solve_inner(H, g, eps1=0.1, kappa=10.0, mode="cg")
        assert np.linalg.norm(g - H @ result.p) <= 0.01 * np.linalg.norm(g)
        assert not result.stalled

    def test_exact_mode_residual_floor(self):
        gen = np.random.Generator(np.random.Philox(key=15))
        M = gen.standard_normal((15, 15))
        H = M @ M.T + 0.1 * np.eye(15)
        g = gen.standard_normal(15)
        result = solve_inner(H, g, eps1=0.0, kappa=1.0)
        assert result.rel_residual <= 1e-10

    def test_non_spd_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_inner(-np.eye(3), np.ones(3), eps1=0.1, kappa=2.0)
        with pytest.raises(NotPositiveDefinite):
            solve_inner(np.diag([1.0, -1.0]), np.ones(2), 0.1, 2.0, mode="cg")

    @pytest.mark.parametrize(
        "H",
        [
            np.diag([1.0, np.nan, 2.0]),
            np.diag([2.0, 2.0, -np.inf]),
            RootPlusShift(np.array([[1.0, np.nan, 0.0]]), 2, 1.0),
            RootPlusShift(np.ones((2, 3)), 2, np.inf),
        ],
    )
    def test_non_finite_rejected(self, H):
        # numpy's Cholesky does not check its input, so the factor does
        with pytest.raises(NotPositiveDefinite):
            solve_inner(H, np.ones(3), eps1=0.1, kappa=2.0)

    def test_kappa_validated(self):
        with pytest.raises(DomainError):
            solve_inner(np.eye(2), np.ones(2), eps1=0.1, kappa=0.5)

    @pytest.mark.parametrize("g", [np.ones(2), np.zeros(2)])
    def test_mode_validated(self, g):
        # also on a zero gradient, which returns before any solve
        with pytest.raises(DomainError, match="unknown inner mode 'bogus'"):
            solve_inner(np.eye(2), g, 0.1, 2.0, mode="bogus")


class TestNewtonDriver:
    def test_one_step_on_quadratic(self, ls_small):
        cfg = SolverConfig(hessian_method="exact", inner="exact",
                           max_iters=10, grad_tol=1e-8)
        trace = approximate_newton_run(ls_small, cfg, np.zeros(5))
        assert trace.status == CONVERGED
        assert trace.n_steps == 1

    def test_unit_step_contract(self, ls_tiny, svm_tiny):
        # rebuild every step from its iterate and its surrogate's draw: the
        # next iterate is the current one minus the inner solution, bit for bit
        runs = [
            (ls_tiny, SolverConfig(hessian_method="subsampled", sample_size=10,
                                   max_iters=5, grad_tol=1e-14), np.ones(4)),
            (svm_tiny, SolverConfig(hessian_method="subsampled",
                                    sample_fraction=0.5, max_iters=5,
                                    grad_tol=1e-14),
             np.ones(4)),
        ]
        for obj, cfg, x0 in runs:
            steps = []
            trace = approximate_newton_run(obj, cfg, x0, on_step=steps.append)
            assert trace.n_steps >= 2
            xs = [step.x for step in steps] + [trace.x_final]
            for t, x in enumerate(xs[:-1]):
                size = cfg.sample_size or max(1, math.ceil(
                    cfg.sample_fraction * obj.hessian_sample_pool(x).size
                ))
                H = subsampled_hessian(obj, x, size, rng.child_seed(cfg.seed, 1, t))
                p = solve_inner(H, obj.gradient(x), cfg.eps1, condition_bound(obj),
                                cfg.inner).p
                np.testing.assert_array_equal(xs[t + 1], x - p)

    @pytest.mark.parametrize("method, extra", [("subsampled", {}),
                                               ("newsamp", {"rank": 1})])
    def test_sampled_step_derives_its_pool_once(self, monkeypatch, method, extra):
        # a sample_fraction is resolved against the pool the rows are drawn
        # from, so a step unpacks the SVM's support set once
        calls = []
        pool = SvmHinge2Objective.hessian_sample_pool
        monkeypatch.setattr(SvmHinge2Objective, "hessian_sample_pool",
                            lambda obj, x: calls.append(1) or pool(obj, x))
        obj = svm_hinge2_objective(synthetic_two_class(60, 4, seed=5), C=1.0)
        cfg = SolverConfig(hessian_method=method, sample_fraction=0.5, max_iters=5,
                           grad_tol=1e-14, **extra)
        trace = approximate_newton_run(obj, cfg, np.ones(4))
        assert trace.n_steps >= 2
        assert len(calls) == trace.n_steps

    def test_step_sink_leaves_the_run_unchanged(self, svm_tiny):
        # the sink sees every step as it is taken and changes nothing
        cfg = SolverConfig(hessian_method="subsampled", sample_fraction=0.5,
                           inner="cg", eps1=0.1, max_iters=6, grad_tol=1e-14,
                           seed=3)
        steps = []
        plain = approximate_newton_run(svm_tiny, cfg, np.ones(4))
        sunk = approximate_newton_run(svm_tiny, cfg, np.ones(4),
                                      on_step=steps.append)
        assert sunk.status == plain.status
        assert sunk.grad_norms == plain.grad_norms
        assert sunk.inner_residuals == plain.inner_residuals
        np.testing.assert_array_equal(sunk.x_final, plain.x_final)
        assert len(steps) == sunk.n_steps >= 2
        assert [step.t for step in steps] == list(range(sunk.n_steps))
        assert [step.inner.rel_residual for step in steps] == sunk.inner_residuals
        xs = [step.x for step in steps] + [sunk.x_final]
        for t, step in enumerate(steps):
            np.testing.assert_array_equal(xs[t + 1], step.x - step.inner.p)

    def test_bit_exact_determinism(self, ls_tiny):
        cfg = SolverConfig(hessian_method="subsampled", sample_size=6,
                           max_iters=20, grad_tol=1e-10, seed=8)
        tr_a = approximate_newton_run(ls_tiny, cfg, np.ones(4))
        tr_b = approximate_newton_run(ls_tiny, cfg, np.ones(4))
        np.testing.assert_array_equal(tr_a.x_final, tr_b.x_final)
        np.testing.assert_array_equal(tr_a.grad_norms, tr_b.grad_norms)

    def test_divergence_guard_labels_run(self):
        # a nearly singular surrogate floor makes the step explode
        gen = np.random.Generator(np.random.Philox(key=16))
        A = gen.standard_normal((100, 40))
        obj = least_squares_objective(A, gen.standard_normal(100))
        cfg = SolverConfig(hessian_method="subsampled", sample_size=2,
                           alpha=1e-10, max_iters=50, grad_tol=1e-10, seed=0)
        trace = approximate_newton_run(obj, cfg, np.zeros(40))
        assert trace.status == DIVERGED
        assert all(np.isfinite(trace.grad_norms))

    def test_gradient_norm_above_guard_diverges_at_start(self):
        obj = least_squares_objective(np.eye(2), np.array([2 * DIVERGENCE_GUARD, 0.0]))
        trace = approximate_newton_run(obj, SolverConfig(), np.zeros(2))
        assert trace.status == DIVERGED
        assert trace.n_steps == 0
        assert trace.grad_norms == [2 * DIVERGENCE_GUARD]

    def test_non_finite_gradient_is_the_last_norm(self):
        gen = np.random.Generator(np.random.Philox(key=4))
        obj = NanAfterFirstGradient(DatasetMatrix(gen.standard_normal((20, 3)),
                                                  gen.standard_normal(20)))
        trace = approximate_newton_run(obj, SolverConfig(), np.zeros(3))
        assert trace.status == DIVERGED
        assert trace.n_steps == 1
        assert len(trace.grad_norms) == len(trace.gradients) == 2
        assert math.isfinite(trace.grad_norms[0]) and math.isnan(trace.grad_norms[1])

    def test_inner_residual_meets_target_when_not_stalled(self, ls_tiny):
        cfg = SolverConfig(hessian_method="exact", inner="cg", eps1=0.2,
                           max_iters=30, grad_tol=1e-9, seed=1)
        steps = []
        approximate_newton_run(ls_tiny, cfg, np.ones(4), on_step=steps.append)
        kappa = condition_bound(ls_tiny)
        for step in steps:
            if not step.inner.stalled:
                assert step.inner.rel_residual <= 0.2 / kappa + 1e-12

    def test_trace_keeps_one_gradient_per_iterate(self, ls_tiny):
        cfg = SolverConfig(hessian_method="exact", max_iters=5, grad_tol=1e-9)
        trace = approximate_newton_run(ls_tiny, cfg, np.ones(4))
        assert len(trace.gradients) == len(trace.grad_norms)


    @pytest.mark.parametrize("method, settings", [
        ("exact", {}),
        ("gradient_descent", {}),
        ("sketched", {"sketch_kind": "gaussian", "sketch_size": 40}),
        ("subsampled", {"sample_size": 30}),
        ("newsamp", {"sample_size": 30, "rank": 2}),
    ])
    def test_step_seed_derived_only_where_the_method_draws(
        self, ls_tiny, monkeypatch, method, settings
    ):
        derived = []
        child_seed = rng.child_seed
        monkeypatch.setattr(rng, "child_seed",
                            lambda *tags: derived.append(tags) or child_seed(*tags))
        cfg = SolverConfig(hessian_method=method, max_iters=3, grad_tol=1e-300,
                           seed=5, **settings)
        trace = approximate_newton_run(ls_tiny, cfg, np.zeros(ls_tiny.d))
        draws = method in RANDOMIZED_METHODS
        assert trace.n_steps >= 1
        assert derived == [(5, 1, t) for t in range(trace.n_steps)] * draws


class TestSolverConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("eps1", "1e-1"), ("sample_size", "1e2"), ("sample_size", 2.5),
         ("rank", True), ("max_iters", 1.0), ("grad_tol", None)],
    )
    def test_wrong_number_type_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(SolverConfig) if f.type.startswith("float")],
    )
    # an integer past the float range would overflow where the run reads it
    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float64("nan"),
         pytest.param(10**400, id="10**400")],
    )
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})

    def test_numpy_scalars_accepted(self):
        cfg = SolverConfig(hessian_method="subsampled", inner="cg",
                           eps1=np.float64(0.1), sample_size=np.int64(20),
                           max_iters=np.int32(5))
        assert cfg.sample_size == 20
        cfg = SolverConfig(hessian_method="newsamp", rank=np.int64(2),
                           sample_fraction=1)
        assert cfg.sample_fraction == 1

    def test_setting_values_cover_surrogate_settings(self):
        assert set(SETTING_VALUES) == SURROGATE_SETTINGS
        assert set(METHOD_SETTINGS) == set(METHODS)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(METHODS), st.data())
    def test_setting_outside_the_methods_row_rejected(self, method, data):
        unread = sorted(SURROGATE_SETTINGS - set(METHOD_SETTINGS[method]))
        name = data.draw(st.sampled_from(unread))
        value = data.draw(SETTING_VALUES[name])
        with pytest.raises(DomainError, match=f"{method} does not read {name},"):
            SolverConfig(hessian_method=method, **NEEDS.get(method, {}),
                         **{name: value})

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(METHODS), st.data())
    def test_every_setting_of_the_methods_row_accepted(self, method, data):
        chosen = dict(NEEDS.get(method, {}))
        for name in METHOD_SETTINGS[method]:
            if data.draw(st.booleans(), label=name):
                chosen[name] = data.draw(SETTING_VALUES[name])
        if "sample_fraction" in chosen:
            del chosen["sample_size"]  # the two sample settings exclude each other
        cfg = SolverConfig(hessian_method=method, **chosen)
        assert {name: getattr(cfg, name) for name in chosen} == chosen


class TestBaselines:
    def test_full_newton_single_step(self, ls_small):
        trace = approximate_newton_run(ls_small, SolverConfig(grad_tol=1e-8),
                                       np.zeros(5))
        assert trace.status == CONVERGED
        assert trace.n_steps == 1

    def test_newton_cg_matches_full_newton(self, ls_tiny):
        st_cg, st_nt = [], []
        tr_cg = approximate_newton_run(
            ls_tiny, SolverConfig(inner="cg", eps1=0.0, max_iters=10, grad_tol=1e-9),
            np.ones(4), on_step=st_cg.append,
        )
        tr_nt = approximate_newton_run(
            ls_tiny, SolverConfig(max_iters=10, grad_tol=1e-9),
            np.ones(4), on_step=st_nt.append,
        )
        assert tr_cg.n_steps == tr_nt.n_steps
        xs_cg = [step.x for step in st_cg] + [tr_cg.x_final]
        xs_nt = [step.x for step in st_nt] + [tr_nt.x_final]
        for a, b in zip(xs_cg, xs_nt):
            assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_gradient_descent_contraction_on_diagonal_quadratic(self):
        A = np.diag([1.0, np.sqrt(10.0)])
        target = np.array([1.0, 1.0])
        obj = least_squares_objective(A, A @ target)
        cfg = SolverConfig(hessian_method="gradient_descent", max_iters=40,
                           grad_tol=1e-12)
        steps = []
        trace = approximate_newton_run(obj, cfg, np.zeros(2), on_step=steps.append)
        # step 1/L = 1/10: the error in the unit-curvature coordinate
        # contracts by exactly 0.9 per iteration
        errs = [abs(x[0] - 1.0) for x in [s.x for s in steps] + [trace.x_final]]
        for e0, e1 in zip(errs[:-1], errs[1:]):
            assert e1 == pytest.approx(0.9 * e0, rel=1e-10)

    def test_unknown_baseline(self, ls_tiny):
        with pytest.raises(DomainError):
            approximate_newton_run(ls_tiny, SolverConfig(hessian_method="bfgs"),
                                   np.zeros(4))


class TestSchedule:
    def test_hand_values(self):
        assert superlinear_schedule(7) == pytest.approx(1.0 / math.log(8.0))
        assert superlinear_schedule(2) == 0.9  # 1/log 3 = 0.9102 clamps to 0.9
        assert superlinear_schedule(0) == 0.9
        assert superlinear_schedule(1) == 0.9

    def test_monotone_decreasing_into_zero(self):
        vals = [superlinear_schedule(t) for t in range(2, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 0.9 for v in vals)
        assert vals[-1] < 0.2


class TestConditionBound:
    def test_objective_bounds(self, ls_small):
        kappa = condition_bound(ls_small)
        assert kappa == pytest.approx(ls_small.L / ls_small.sigma)


class QuadraticQuartic(FiniteSumObjective):
    """0.5 x'Qx + q'x + (c/4) sum x_i^4: strongly convex, Lipschitz Hessian."""

    def __init__(self, Q, q, c):
        self.Q, self.q, self.c = Q, q, c
        self.n, self.d = 1, Q.shape[0]
        self.memo = CurvatureMemo(Q)
        self.sigma = float(np.linalg.eigvalsh(Q)[0])
        self.L = float(np.linalg.eigvalsh(Q)[-1]) + 3 * c * 4.0  # |x_i| <= 2 region
        self.K = self.L

    def value(self, x):
        return float(0.5 * x @ self.Q @ x + self.q @ x + self.c / 4 * np.sum(x**4))

    def gradient(self, x):
        return self.Q @ x + self.q + self.c * x**3

    def full_hessian(self, x):
        return self.Q + 3 * self.c * np.diag(x**2)

    def curvature_key(self, x):
        return x.tobytes()  # the Hessian changes with x


class TestQuadraticRegime:
    def test_newton_ratio_bounded_by_curvature_constants(self):
        gen = np.random.Generator(np.random.Philox(key=17))
        M = gen.standard_normal((6, 6))
        Q = M @ M.T + 2.0 * np.eye(6)
        obj = QuadraticQuartic(Q, gen.standard_normal(6), c=0.5)
        steps = []
        trace = approximate_newton_run(obj, SolverConfig(max_iters=30, grad_tol=1e-13),
                                       0.5 * gen.standard_normal(6),
                                       on_step=steps.append)
        assert trace.status == CONVERGED
        # Hessian-layer Lipschitz constant on the visited region
        xs = [step.x for step in steps] + [trace.x_final]
        radius = max(np.abs(np.asarray(xs)).max(), 1.0)
        l_hat = 6 * obj.c * radius
        mu = obj.sigma
        bound = 1.5 * l_hat / (2 * mu**2)
        gnorms = trace.grad_norms
        for g0, g1 in zip(gnorms[:-1], gnorms[1:]):
            if g0 > 1e-9:  # below this the ratio is dominated by roundoff
                assert g1 <= bound * g0**2
