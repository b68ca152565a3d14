"""The surrogate factorization: numpy's Cholesky behind every dense and
Woodbury solve.

The Newton loop must not call scipy's `cho_factor` or `cholesky`, which
would run on scipy's own OpenBLAS thread pool beside numpy's, nor
`cho_solve`, which checks and copies the factor at every solve; the
`scipy_cholesky_raises` fixture makes any such call fail the run.  The
solves call the `dpotrs` that `cho_solve` calls, with the same result bit
for bit.  NewSamp takes its eigenpairs from one `eigh` on numpy's LAPACK;
the `svd_and_scipy_eigh_raise` fixture fails a run that falls back to an
SVD or to scipy's `eigh`.
"""

import numpy as np
import pytest
import scipy.linalg

from approxnewton import (
    SolverConfig,
    approximate_newton_run,
    compute_mstar_reference,
    hessian_approx,
)
from approxnewton.experiments import build_objective
from approxnewton.hessian_approx import (
    DenseHessian,
    FlooredSpectrum,
    RootPlusShift,
    exact_hessian,
)


@pytest.fixture
def scipy_cholesky_raises(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's Cholesky factored or solved a surrogate")

    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)


@pytest.fixture
def svd_and_scipy_eigh_raise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a surrogate took an SVD or scipy's eigh")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(scipy.linalg, "svd", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)


def run_forms(obj, cfg):
    """Run from 0 and return the trace and the surrogate form of each step."""
    forms = []
    trace = approximate_newton_run(
        obj, cfg, np.zeros(obj.d), on_step=lambda step: forms.append(type(step.H))
    )
    return trace, set(forms)


@pytest.mark.usefixtures("scipy_cholesky_raises")
@pytest.mark.parametrize("fixture", ["ls_small", "svm_tiny"])
class TestLoopWithoutScipyFactor:
    def test_exact_newton_and_newton_cg(self, fixture, request):
        obj = request.getfixturevalue(fixture)
        for inner, eps1 in (("exact", 0.0), ("cg", 0.1)):
            cfg = SolverConfig(inner=inner, eps1=eps1, max_iters=30, grad_tol=1e-10)
            trace, forms = run_forms(obj, cfg)
            assert trace.status == "converged"
            assert forms == {DenseHessian}

    @pytest.mark.parametrize("size, form", [(40, DenseHessian), (2, RootPlusShift)])
    def test_subsampled_dense_and_woodbury(self, fixture, request, size, form):
        obj = request.getfixturevalue(fixture)
        cfg = SolverConfig(hessian_method="subsampled", sample_size=size, alpha=0.5,
                           max_iters=10, grad_tol=1e-10, seed=3)
        trace, forms = run_forms(obj, cfg)
        assert trace.n_steps >= 1
        assert forms == {form}

    @pytest.mark.usefixtures("svd_and_scipy_eigh_raise")
    @pytest.mark.parametrize("size", [12, 3])  # roots on both sides of d
    def test_newsamp(self, fixture, request, size):
        obj = request.getfixturevalue(fixture)
        cfg = SolverConfig(hessian_method="newsamp", sample_size=size, rank=1,
                           max_iters=10, grad_tol=1e-10, seed=3)
        trace, forms = run_forms(obj, cfg)
        assert trace.n_steps >= 1
        assert forms == {FlooredSpectrum}

    def test_mstar_reference(self, fixture, request):
        obj = request.getfixturevalue(fixture)
        ref = compute_mstar_reference(obj, np.zeros(obj.d))
        assert np.linalg.norm(obj.gradient(ref.x_star)) < 1e-10


@pytest.mark.parametrize("d", [1, 5, 54, 200])
def test_solves_match_cho_solve_bit_for_bit(d):
    gen = np.random.Generator(np.random.Philox(key=d))
    g = gen.standard_normal(d)
    A = gen.standard_normal((d + 3, d))
    H = DenseHessian(A.T @ A)
    p = H.solve(g)
    assert np.array_equal(p, scipy.linalg.cho_solve((H._factor, False), g))
    for rows in (0, d // 2):  # no rows: H is the bare shift
        R = gen.standard_normal((rows, d))
        H = RootPlusShift(R, 4, 0.3)
        p = H.solve(g)
        inner = scipy.linalg.cho_solve((H._factor, False), R @ g)
        assert np.array_equal(p, (g - R.T @ inner) / 0.3)


@pytest.mark.parametrize(
    "problem",
    [{"kind": "spiked", "n": 80, "d": 50, "seed": 11},
     {"kind": "two_class", "n": 300, "d": 6, "seed": 4, "separation": 3.0, "C": 20.0}],
    ids=["least_squares", "svm"],
)
def test_exact_steps_and_reference_factor_each_hessian_once(monkeypatch, problem):
    factored = []
    cholesky = hessian_approx._cholesky
    monkeypatch.setattr(hessian_approx, "_cholesky",
                        lambda M: factored.append(M) or cholesky(M))
    obj = build_objective(problem)
    ref = compute_mstar_reference(obj, np.zeros(obj.d))
    # the reference's last exact step and x* share a curvature key, so M*
    # is the factor that step made
    assert exact_hessian(obj, ref.x_star).factor is ref.factor
    assert len({id(M) for M in factored}) == len(factored)
    if problem["kind"] == "spiked":  # a constant Hessian
        assert len(factored) == 1
    before = len(factored)
    trace = approximate_newton_run(obj, SolverConfig(grad_tol=1e-10), np.zeros(obj.d))
    assert trace.status == "converged" and trace.n_steps >= 1
    assert len(factored) == before  # the cell retraces the reference's path
