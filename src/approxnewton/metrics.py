"""Reference-norm machinery, rate classification, and contraction diagnostics.

All convergence rates are measured in the norm ||v|| weighted by the inverse
Hessian at the optimum: r_t = ||grad F(x_t)|| in that norm.  A trace is
classified from the tail of its r_t sequence:

* quadratic -- log r_{t+1} regresses on log r_t with slope in [1.8, 2.5]
  and R^2 >= 0.98,
* superlinear -- successive ratios r_{t+1}/r_t decrease across the window
  and the final ratio is below half the initial one; because stochastic
  Hessians make single ratios noisy, both conditions are evaluated on
  geometric-mean smoothed blocks of the ratio sequence,
* linear -- ratios are approximately constant: geometric mean in (0, 1)
  with bounded max log-deviation.

Precedence is quadratic > superlinear > linear; anything else is
inconclusive.  Window and thresholds are calibration constants (see README).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DomainError, InsufficientData, ReferenceNotConverged, ShapeError
from .hessian_approx import exact_hessian
from .problems import FiniteSumObjective
from .solvers import DIVERGED, IterationTrace, SolverConfig, approximate_newton_run

RESIDUAL_FLOOR = 1e-13  # window ends before r_t first reaches this
WINDOW_SKIP = 2  # transient iterations excluded up front
QUAD_SLOPE_RANGE = (1.8, 2.5)
QUAD_MIN_R2 = 0.98
LINEAR_MAX_LOG_DEV = 0.8
SUPERLINEAR_FINAL_FACTOR = 0.5
SUPERLINEAR_SMOOTH = 3  # ratios pooled per endpoint when smoothing

LINEAR = "linear"
SUPERLINEAR = "superlinear"
QUADRATIC = "quadratic"
INCONCLUSIVE = "inconclusive"
DIVERGED_CLASS = "diverged"
REFERENCE_MAX_ITERS = 200  # exact Newton steps allowed to locate x*


class MstarReference:
    """The optimum x*, the Hessian H* there and its upper Cholesky factor U.

    `H*^{-1} = U^{-1} U^{-T}`, so the M*-norm of v is `||U^{-T} v||` and
    takes one triangular solve (`mstar_norm`).  The factor is numpy's, in
    the Fortran order LAPACK reads, as every surrogate's is.  `hessian`
    and `factor` are held as given, not copied.
    """

    def __init__(self, x_star: np.ndarray, hessian: np.ndarray, factor: np.ndarray):
        self.x_star = x_star
        self.hessian = hessian
        self.factor = factor

    @functools.cached_property
    def mstar_half(self) -> np.ndarray:
        """The symmetric square root `H*^{-1/2}`, from an `eigh` of H* made
        on first access; the norm itself never reads it."""
        w, V = np.linalg.eigh(self.hessian)
        return (V / np.sqrt(w)) @ V.T


@dataclass
class RateReport:
    classification: str
    rho: float | None
    fit_residual: float
    window: tuple[int, int]


def compute_mstar_reference(obj: FiniteSumObjective, x0: np.ndarray) -> MstarReference:
    """Locate x* by exact Newton and factor the Hessian there (one
    Cholesky, shared through the objective's memo with the exact steps at
    the same curvature key; see `MstarReference`).

    The reference gradient tolerance is 1e-13 scaled by max(1, ||grad F(x0)||).
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = float(np.linalg.norm(obj.gradient(x0)))
    tol = 1e-13 * max(1.0, g0)
    cfg = SolverConfig(max_iters=REFERENCE_MAX_ITERS, grad_tol=tol)
    trace = approximate_newton_run(obj, cfg, x0)
    if trace.status != "converged":
        raise ReferenceNotConverged(
            f"exact Newton stopped with status {trace.status!r} at "
            f"||grad|| = {trace.grad_norms[-1]:.3e} (tol {tol:.3e})"
        )
    x_star = trace.x_final
    H = exact_hessian(obj, x_star)
    return MstarReference(x_star, H.matrix, H.factor)


def mstar_norm(ref: MstarReference, v: np.ndarray) -> float:
    """Norm of v weighted by the inverse Hessian at the optimum,
    `sqrt(v^T H*^{-1} v) = ||U^{-T} v||`: one LAPACK triangular solve, on
    one thread for one right-hand side."""
    v = np.asarray(v, dtype=float)
    d = ref.factor.shape[0]
    if v.shape[0] != d:
        raise ShapeError(f"vector has dimension {v.shape[0]}, reference {d}")
    return float(np.linalg.norm(dtrtrs(ref.factor, v, lower=0, trans=1)[0]))


def fill_mstar_norms(trace: IterationTrace, ref: MstarReference) -> list[float]:
    """Compute r_t for every recorded iterate and store it on the trace."""
    if not trace.gradients:
        raise InsufficientData("trace carries no gradient records")
    vals = [mstar_norm(ref, g) for g in trace.gradients]
    trace.grad_mstar_norms = vals
    return vals


def _classification_window(r: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    floored = np.flatnonzero(r <= RESIDUAL_FLOOR)
    end = int(floored[0]) if floored.size else len(r)
    if np.count_nonzero(r[:end] > 1e-14) < 5:
        raise InsufficientData(
            f"need at least 5 iterations above 1e-14, have {np.count_nonzero(r[:end] > 1e-14)}"
        )
    if end - WINDOW_SKIP < 3:
        raise InsufficientData("window too short after transient removal")
    return r[WINDOW_SKIP:end], (WINDOW_SKIP, end)


def _geomean(vals: np.ndarray) -> float:
    return float(np.exp(np.log(vals).mean()))


def _superlinear_trend(ratios: np.ndarray) -> bool:
    """Decreasing-contraction test on smoothed ratio blocks.

    The ratio sequence is split into three consecutive blocks whose
    geometric means must decrease strictly, and the geometric mean of the
    last few ratios must be below half that of the first few.
    """
    if ratios.size < 3:
        return False
    third = ratios.size // 3
    blocks = [ratios[:third], ratios[third : 2 * third], ratios[2 * third :]]
    g = [_geomean(b) for b in blocks]
    if not g[0] > g[1] > g[2]:
        return False
    k = max(2, min(SUPERLINEAR_SMOOTH, ratios.size // 3))
    head = _geomean(ratios[:k])
    tail = _geomean(ratios[-k:])
    return tail < SUPERLINEAR_FINAL_FACTOR * head


def classify_rate(trace: IterationTrace, ref: MstarReference) -> RateReport:
    """Classify the convergence rate of a trace (filling r_t if needed)."""
    if trace.status == DIVERGED:
        return RateReport(DIVERGED_CLASS, None, math.inf, (0, len(trace.grad_norms)))
    if trace.grad_mstar_norms is None:
        fill_mstar_norms(trace, ref)
    r = np.asarray(trace.grad_mstar_norms, dtype=float)
    window, span = _classification_window(r)
    ratios = window[1:] / window[:-1]
    logs = np.log(window)

    if window.size >= 4:
        x, y = logs[:-1], logs[1:]
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot > 0.0:
            r2 = 1.0 - ss_res / ss_tot
            if QUAD_SLOPE_RANGE[0] <= slope <= QUAD_SLOPE_RANGE[1] and r2 >= QUAD_MIN_R2:
                return RateReport(QUADRATIC, float(math.exp(intercept)), 1.0 - r2, span)

    if _superlinear_trend(ratios):
        return RateReport(SUPERLINEAR, None, float(ratios[-1] / ratios[0]), span)

    log_ratios = np.log(ratios)
    rho = float(math.exp(log_ratios.mean()))
    dev = float(np.abs(log_ratios - log_ratios.mean()).max())
    if 0.0 < rho < 1.0 and dev <= LINEAR_MAX_LOG_DEV:
        return RateReport(LINEAR, rho, dev, span)
    return RateReport(INCONCLUSIVE, None, dev, span)


@dataclass
class ContractionRow:
    """One iteration of the measured-contraction check."""

    t: int
    ratio: float
    eta_measured: float
    nu_measured: float
    bound_rhs: float
    within_bound: bool
    nu_flagged: bool


def contraction_diagnostics(
    obj: FiniteSumObjective,
    trace: IterationTrace,
    xs: list[np.ndarray],
    ref: MstarReference,
    eps0: float,
    eps1: float,
) -> list[ContractionRow]:
    """Per-iteration comparison of r_{t+1}/r_t against the contraction bound

        (eps0 + eps1/(1-eps0) + 2 eta_t/(1-eps0)) * (1+nu_t) / (1-nu_t)

    with eta_t and nu_t measured from the Hessian distance (respectively
    inverse-Hessian distance) between iterate t and the optimum, rescaled by
    the objective's curvature bounds.  `xs[t]` is the iterate step t started
    from, as an `on_step` sink of the run sees it (`Step.x`).  Rows with
    nu_t >= 1 are flagged: the conversion between the local and reference
    norms is vacuous there.
    """
    if len(xs) != trace.n_steps:
        raise ShapeError(f"{len(xs)} iterates for a trace of {trace.n_steps} steps")
    if trace.grad_mstar_norms is None:
        fill_mstar_norms(trace, ref)
    mu = obj.sigma
    L = obj.L
    kappa = max(1.0, L / mu)
    hess_star = ref.hessian
    w_star, V_star = np.linalg.eigh(hess_star)
    inv_star = (V_star / w_star) @ V_star.T
    rows = []
    r = trace.grad_mstar_norms
    for t in range(trace.n_steps):
        hess_t = obj.full_hessian(xs[t])
        eta = spectral_norm(hess_t - hess_star) * math.sqrt(kappa) / mu
        w_t, V_t = np.linalg.eigh(hess_t)
        inv_t = (V_t / w_t) @ V_t.T
        nu = L * spectral_norm(inv_star - inv_t)
        ratio = r[t + 1] / r[t] if r[t] > 0 else 0.0
        nu_flagged = nu >= 1.0
        if nu_flagged:
            bound = math.inf
        else:
            bound = (
                (eps0 + eps1 / (1.0 - eps0) + 2.0 * eta / (1.0 - eps0))
                * (1.0 + nu)
                / (1.0 - nu)
            )
        rows.append(
            ContractionRow(
                t=t,
                ratio=float(ratio),
                eta_measured=float(eta),
                nu_measured=float(nu),
                bound_rhs=float(bound),
                within_bound=bool(ratio <= bound),
                nu_flagged=nu_flagged,
            )
        )
    return rows


def spectral_norm(M: np.ndarray) -> float:
    """Exact spectral norm of a symmetric matrix."""
    return float(np.abs(np.linalg.eigvalsh(M)).max()) if M.size else 0.0


def distance_bound_from_gradient(grad_mstar: float, L: float, mu: float) -> float:
    """Bound sqrt(L)/mu * r_t on the distance ||x_t - x*||."""
    if not (0 < L < math.inf and 0 < mu < math.inf and grad_mstar >= 0):
        raise DomainError(
            f"need finite L, mu > 0 and grad_mstar >= 0, got {L}, {mu}, {grad_mstar}"
        )
    return math.sqrt(L) * grad_mstar / mu
