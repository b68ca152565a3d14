"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line (run with `pytest tests/test_acceptance.py -v -s`).  The
stochastic criteria use frozen seeds, so every run re-checks identical
numbers.
"""

import os
import time

import numpy as np
import pytest

from approxnewton import (
    SolverConfig,
    approximate_newton_run,
    check_spectral_sandwich,
    classify_rate,
    compute_mstar_reference,
    contraction_diagnostics,
    epsilon0_regularized,
    least_squares_objective,
    make_leverage_sketch,
    make_oblivious_sketch,
    newsamp_hessian,
    subsampled_hessian,
    svm_hinge2_objective,
    synthetic_spectrum_matrix,
    synthetic_two_class,
    uniform_sample_size,
    verify_subspace_embedding,
)
from approxnewton.hessian_approx import epsilon0_newsamp_branches
from approxnewton.metrics import LINEAR, QUADRATIC, SUPERLINEAR
from approxnewton.sketch import ALL_KINDS, LEVERAGE_SCORE, recommended_sketch_size
from approxnewton.experiments import (
    ExperimentConfig,
    default_config,
    run_experiment,
)

from conftest import fd_hessian_vector


def report(num, elapsed, detail):
    print(f"\nACCEPTANCE {num:>2} PASS ({elapsed:6.1f}s): {detail}")


@pytest.fixture(scope="module")
def ill_conditioned_problem():
    ds = synthetic_spectrum_matrix(10000, 54, 1.2, seed=7)
    obj = least_squares_objective(ds.rows, ds.labels)
    ref = compute_mstar_reference(obj, np.zeros(54))
    return obj, ref


@pytest.fixture(scope="module")
def svm_problem():
    ds = synthetic_two_class(2000, 50, seed=20, separation=3.0)
    obj = svm_hinge2_objective(ds, C=50.0)
    ref = compute_mstar_reference(obj, np.zeros(50))
    return obj, ref


def test_criterion_01_synthetic_spectrum():
    tic = time.perf_counter()
    ds = synthetic_spectrum_matrix(10000, 54, 1.2, seed=7)
    svals = np.linalg.svd(ds.rows, compute_uv=False)
    kappa = svals[0] / svals[-1]
    # exact value implied by the constructed spectrum decay^-1 .. decay^-54
    kappa_construction = 1.2**53
    assert abs(kappa - kappa_construction) <= 1e-6 * kappa_construction
    # regime anchor 1.8741e4: that decimal is internally inconsistent with
    # the spectrum it describes, so it is held at 25% (see README notes)
    assert abs(kappa - 1.8741e4) <= 0.25 * 1.8741e4
    assert time.perf_counter() - tic < 5.0
    report(1, time.perf_counter() - tic,
           f"kappa={kappa:.6g} matches construction to 1e-6, "
           f"within regime of anchor 1.8741e4")


def test_criterion_02_embedding_suite():
    tic = time.perf_counter()
    d, eps, n_seeds = 10, 0.5, 200
    gen = np.random.Generator(np.random.Philox(key=3))
    A = gen.standard_normal((40 * d, d))
    rates = {}
    for kind in ALL_KINDS:
        s = recommended_sketch_size(kind, d, eps)
        holds = 0
        for seed in range(n_seeds):
            if kind == LEVERAGE_SCORE:
                S = make_leverage_sketch(A, s, seed)
            else:
                S = make_oblivious_sketch(kind, s, A.shape[0], seed)
            holds += verify_subspace_embedding(S, A, eps).holds
        rates[kind] = holds / n_seeds
        assert rates[kind] >= 0.95, (kind, rates[kind])
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    report(2, elapsed, f"success rates {rates}")


def test_criterion_03_condition_number_independence(ill_conditioned_problem):
    tic = time.perf_counter()
    obj, ref = ill_conditioned_problem
    ell = 4 * obj.d  # no dependence on the condition number (~1.9e4 here)
    outcomes = {}
    for kind in ALL_KINDS:
        good = 0
        for seed in range(10):
            cfg = SolverConfig(
                hessian_method="sketched", sketch_kind=kind, sketch_size=ell,
                inner="exact", max_iters=200, grad_tol=1e-8, seed=seed,
            )
            trace = approximate_newton_run(obj, cfg, np.zeros(obj.d))
            rep = classify_rate(trace, ref)
            good += trace.status == "converged" and rep.classification == LINEAR
        outcomes[kind] = good
        assert good >= 9, (kind, good)
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    report(3, elapsed, f"converged+linear out of 10 seeds: {outcomes}")


def test_criterion_03_contrast_bound_documented():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    assert "1.02" in text and "10^6" in text  # prior-work size d*kappa, cited only


def test_criterion_04_lipschitz_free_rates(svm_problem):
    tic = time.perf_counter()
    obj, ref = svm_problem
    x0 = np.zeros(obj.d)
    cfg = SolverConfig(
        hessian_method="subsampled", sample_fraction=0.05, inner="exact",
        max_iters=200, grad_tol=1e-10, seed=0,
    )
    tr_sub = approximate_newton_run(obj, cfg, x0)
    rep_sub = classify_rate(tr_sub, ref)
    assert tr_sub.status == "converged"
    assert rep_sub.classification == LINEAR

    tr_newton = approximate_newton_run(
        obj, SolverConfig(max_iters=200, grad_tol=1e-10), x0
    )
    rep_newton = classify_rate(tr_newton, ref)
    assert tr_newton.status == "converged"
    assert rep_newton.classification in (SUPERLINEAR, QUADRATIC)
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    report(4, elapsed,
           f"5%-support-vector sampling -> {rep_sub.classification} "
           f"(rho={rep_sub.rho:.3f}); exact -> {rep_newton.classification}")


def test_criterion_05_regularizer_sample_size_law(tmp_path):
    tic = time.perf_counter()
    cfg = default_config("regularized_sweep", str(tmp_path))
    cfg.workers = 2
    code = run_experiment(cfg)
    assert code == 0
    rows = {}
    with open(tmp_path / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            vals = dict(zip(header, line.strip().split(",")))
            label = vals["tag"].rsplit("_s", 1)[0]
            size = int(label.split("-")[0][1:])
            alpha = float(label.split("alpha")[1])
            rows[(size, alpha)] = (vals["status"], int(vals["iters"]))

    # (a) smallest sample size with the smallest regularizer diverges
    assert rows[(10, 1e-8)][0] == "diverged"
    # (b) every sample size has a converging regularizer
    best = {}
    for size in (10, 30, 60):
        converged = {a: it for (s, a), (st, it) in rows.items()
                     if s == size and st == "converged"}
        assert converged, f"no alpha converged at size {size}"
        best[size] = min(converged.values())
    # (c) more samples converge in fewer iterations at their best regularizer
    assert best[60] < best[10]
    elapsed = time.perf_counter() - tic
    assert elapsed < 600.0
    report(5, elapsed, f"best-alpha iterations by sample size: {best}")


def test_criterion_06_tail_floor_equals_matched_regularizer():
    tic = time.perf_counter()
    # closed-form equality at alpha = beta + lam, 50 random triples
    gen = np.random.Generator(np.random.Philox(key=21))
    for _ in range(50):
        beta = float(gen.uniform(0.01, 1.0))
        lam = float(gen.uniform(2.1 * beta, 5.0))
        sigma = float(gen.uniform(0.01, 2.0))
        reg = epsilon0_regularized(beta + lam, beta, sigma)
        news_lower = epsilon0_newsamp_branches(beta, lam, sigma)[1]
        assert abs(reg - news_lower) <= 1e-12

    # trace-level similarity on a 200 x 20 problem
    ds = synthetic_spectrum_matrix(200, 20, 1.3, seed=31)
    obj = least_squares_objective(ds.rows, ds.labels)
    ref = compute_mstar_reference(obj, np.zeros(20))
    size, r = 60, 5
    floor = newsamp_hessian(obj, np.zeros(20), size, r, seed=0).meta[
        "eigenvalue_floor"
    ]
    rhos = []
    for seed in range(3):
        cfg_n = SolverConfig(hessian_method="newsamp", sample_size=size, rank=r,
                             inner="exact", max_iters=400, grad_tol=1e-9,
                             seed=seed)
        cfg_r = SolverConfig(hessian_method="subsampled",
                             sample_size=size, alpha=float(floor), inner="exact",
                             max_iters=400, grad_tol=1e-9, seed=seed)
        rep_n = classify_rate(approximate_newton_run(obj, cfg_n, np.zeros(20)), ref)
        rep_r = classify_rate(approximate_newton_run(obj, cfg_r, np.zeros(20)), ref)
        assert rep_n.classification == rep_r.classification == LINEAR
        assert abs(rep_n.rho - rep_r.rho) <= 0.1
        rhos.append((round(rep_n.rho, 4), round(rep_r.rho, 4)))
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    report(6, elapsed, f"matched-alpha rho pairs: {rhos}")


def test_criterion_07_contraction_bound(svm_tiny):
    tic = time.perf_counter()
    ref = compute_mstar_reference(svm_tiny, np.zeros(4))
    eps0, eps1, size = 0.5, 0.1, 40
    kappa = max(1.0, svm_tiny.L / svm_tiny.sigma)
    certified = violations = 0
    for seed in range(20):
        gen = np.random.Generator(np.random.Philox(key=1000 + seed))
        x0 = ref.x_star + 0.05 * gen.standard_normal(4)
        cfg = SolverConfig(hessian_method="subsampled", sample_size=size,
                           inner="cg", eps1=eps1, max_iters=40, grad_tol=1e-12,
                           seed=seed)
        steps = []
        trace = approximate_newton_run(svm_tiny, cfg, x0, on_step=steps.append)
        xs = [step.x for step in steps]
        rows = contraction_diagnostics(svm_tiny, trace, xs, ref, eps0, eps1)
        for step, row in zip(steps, rows):
            sandwich = check_spectral_sandwich(
                step.H, svm_tiny.full_hessian(step.x), eps0
            )
            ok = sandwich.holds and (
                step.inner.rel_residual <= eps1 / kappa + 1e-12
            )
            if ok and not row.nu_flagged:
                certified += 1
                violations += not row.within_bound
    assert certified >= 100
    assert violations == 0
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    report(7, elapsed,
           f"{certified} certified iterations across 20 seeds, 0 violations")


def test_criterion_08_sandwich_concentration(ls_tiny):
    tic = time.perf_counter()
    x = np.zeros(4)
    full = ls_tiny.full_hessian(x)
    size = uniform_sample_size(ls_tiny.K, ls_tiny.sigma, 4, delta=0.1, eps0=0.5)
    holds = sum(
        check_spectral_sandwich(
            subsampled_hessian(ls_tiny, x, size, seed), full, 0.5
        ).holds
        for seed in range(100)
    )
    assert holds >= 90
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    report(8, elapsed, f"|S|={size}: sandwich held {holds}/100 seeds")


def test_criterion_09_calculus(ls_small, svm_tiny):
    tic = time.perf_counter()
    for obj in (ls_small, svm_tiny):
        gen = np.random.Generator(np.random.Philox(key=11))
        done = 0
        while done < 20:
            x = gen.standard_normal(obj.d)
            v = gen.standard_normal(obj.d)
            v /= np.linalg.norm(v)
            if hasattr(obj, "min_kink_distance") and obj.min_kink_distance(x) < 1e-6:
                continue
            h = 1e-5
            fd = (obj.value(x + h * v) - obj.value(x - h * v)) / (2 * h)
            an = float(obj.gradient(x) @ v)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))
            hv = obj.full_hessian(x) @ v
            hv_fd = fd_hessian_vector(obj.gradient, x, v)
            assert np.linalg.norm(hv - hv_fd) <= 1e-4 * max(1.0, np.linalg.norm(hv))
            done += 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    report(9, elapsed, "gradient/Hessian match finite differences at 1e-5/1e-4")


def test_criterion_10_one_step_newton(ill_conditioned_problem):
    tic = time.perf_counter()
    instances = [least_squares_objective(np.eye(3), np.ones(3))]
    gen = np.random.Generator(np.random.Philox(key=44))
    instances.append(
        least_squares_objective(gen.standard_normal((40, 8)), gen.standard_normal(40))
    )
    instances.append(ill_conditioned_problem[0])
    for obj in instances:
        x0 = np.zeros(obj.d)
        tol = 1e-9 * np.linalg.norm(obj.gradient(x0))
        trace = approximate_newton_run(obj, SolverConfig(max_iters=5, grad_tol=tol), x0)
        assert trace.status == "converged"
        assert trace.n_steps == 1, obj.name
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    report(10, elapsed, f"{len(instances)} instances converged in exactly 1 step")


def test_criterion_11_superlinear_schedule():
    tic = time.perf_counter()
    ds = synthetic_two_class(500, 20, seed=13, separation=3.0)
    obj = svm_hinge2_objective(ds, C=50.0)
    ref = compute_mstar_reference(obj, np.zeros(20))
    warm = approximate_newton_run(
        obj, SolverConfig(max_iters=2, grad_tol=1e-300),
        np.zeros(20),
    )
    good = 0
    for seed in range(10):
        cfg = SolverConfig(
            hessian_method="sketched", sketch_kind="gaussian", sketch_size=None,
            eps0_schedule="log_decay", inner="exact", max_iters=120,
            grad_tol=1e-12, seed=seed,
        )
        trace = approximate_newton_run(obj, cfg, warm.x_final)
        good += classify_rate(trace, ref).classification == SUPERLINEAR
    assert good >= 7
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    report(11, elapsed, f"superlinear classification on {good}/10 seeds")


def test_criterion_12_determinism(tmp_path):
    tic = time.perf_counter()
    def small_cfg(out):
        return ExperimentConfig(
            experiment="custom",
            problem={"kind": "synthetic", "n": 80, "d": 5, "decay": 1.2,
                     "seed": 6},
            grid=[
                {"label": "newton", "method": "exact"},
                {"label": "sketch", "method": "sketched",
                 "sketch_kind": "sparse_embedding", "sketch_size": 40},
            ],
            seeds=[0, 1, 2],
            output_dir=str(out),
            max_iters=60,
            grad_tol=1e-9,
            workers=2,
        )

    run_experiment(small_cfg(tmp_path / "a"))
    run_experiment(small_cfg(tmp_path / "b"))
    compared = 0
    for name in sorted(os.listdir(tmp_path / "a")):
        if name.startswith("timing_") or name == "metadata.txt":
            continue
        with open(tmp_path / "a" / name, "rb") as fa:
            body_a = fa.read()
        with open(tmp_path / "b" / name, "rb") as fb:
            body_b = fb.read()
        assert body_a == body_b, name
        compared += 1
    assert compared >= 8  # traces + summary + plotdata
    elapsed = time.perf_counter() - tic
    report(12, elapsed, f"{compared} CSV bodies byte-identical across reruns")
