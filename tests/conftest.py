import numpy as np
import pytest

from approxnewton import (
    LeastSquaresObjective,
    SvmHinge2Objective,
    least_squares_objective,
    svm_hinge2_objective,
    synthetic_two_class,
)


@pytest.fixture(scope="session")
def ls_small():
    """Random 50x5 least-squares instance used by the calculus oracles."""
    gen = np.random.Generator(np.random.Philox(key=99))
    A = gen.standard_normal((50, 5))
    b = gen.standard_normal(50)
    return least_squares_objective(A, b)


@pytest.fixture(scope="session")
def ls_tiny():
    """30x4 least-squares instance for Monte-Carlo sampling checks."""
    gen = np.random.Generator(np.random.Philox(key=123))
    A = gen.standard_normal((30, 4))
    b = gen.standard_normal(30)
    return least_squares_objective(A, b)


@pytest.fixture(scope="session")
def svm_tiny():
    """30x4 hinge-2 SVM with C=1."""
    ds = synthetic_two_class(30, 4, seed=5, separation=2.0)
    return svm_hinge2_objective(ds, C=1.0)


@pytest.fixture(scope="session")
def svm_mid():
    """2000x50 hinge-2 SVM calibrated so the support set evolves under Newton."""
    ds = synthetic_two_class(2000, 50, seed=20, separation=3.0)
    return svm_hinge2_objective(ds, C=50.0)


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient oracle."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian_vector(grad, x, v, h=1e-6):
    """Central-difference directional derivative of a gradient map."""
    return (grad(x + h * v) - grad(x - h * v)) / (2 * h)


def per_sample_hessian(obj, i, x):
    """Hessian of the i-th loss term at x, scaled so the mean over i is the
    loss Hessian: n * a_i a_i^T for least squares; C * a_i a_i^T for the SVM
    on its support set at x, zero off it."""
    a = obj._A[i]
    if not isinstance(obj, SvmHinge2Objective):
        return obj.n * np.outer(a, a)
    if i in obj.hessian_sample_pool(x):
        return obj.C * np.outer(a, a)
    return np.zeros((obj.d, obj.d))


class NanAfterFirstGradient(LeastSquaresObjective):
    """Least squares whose gradient is NaN from its second call on."""

    calls = 0

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g if self.calls == 1 else np.full_like(g, np.nan)
