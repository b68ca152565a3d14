"""Approximate-Newton driver with pluggable Hessian builders and inner solves.

The driver iterates x <- x - p with unit step, where p approximately solves
H p = g for the configured Hessian surrogate H and the full gradient g.
The inner solve must reach the relative residual ||g - H p|| <=
(eps1 / kappa) ||g||; the exact mode uses the surrogate's own solve with
iterative refinement, the cg mode runs conjugate gradients until the target
(capped at 10 d iterations, a stall is reported in the inner result rather
than raised).  An optional `on_step` sink gets a `Step` record per step:
the iterate, the surrogate and the inner solve.

The reference methods are configurations of the same loop: the default
`SolverConfig()` is full Newton (exact Hessian, exact inner solve),
`inner="cg"` on the exact Hessian is Newton-CG, and gradient descent with
step 1/L is the surrogate `H = L I` (`hessian_method="gradient_descent"`).

Randomness is drawn from per-iteration child seeds of the run seed, so a
run is bit-reproducible and iterations are independent; only the
`RANDOMIZED_METHODS` draw any.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import rng, sketch
from .errors import DomainError, NotPositiveDefinite, ShapeError
from .hessian_approx import (
    EXACT,
    GRADIENT_DESCENT,
    METHODS,
    NEWSAMP,
    SKETCHED,
    SUBSAMPLED,
    ApproxHessian,
    DenseHessian,
    exact_hessian,
    gradient_descent_hessian,
    newsamp_hessian,
    sketched_hessian,
    subsampled_hessian,
)
from .problems import FiniteSumObjective
from .sketch import (
    ALL_KINDS,
    GAUSSIAN,
    LEVERAGE_SCORE,
    make_leverage_sketch,
    make_oblivious_sketch,
    recommended_sketch_size,
    tracking_sketch_size,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
DIVERGED = "diverged"
# a full-gradient norm above this ends a run as diverged
DIVERGENCE_GUARD = 1e8

INNER_EXACT = "exact"
INNER_CG = "cg"

SCHEDULE_CONSTANT = "constant"
SCHEDULE_LOG_DECAY = "log_decay"

_CG_FLOOR = 1e-12  # relative residual floor when eps1 = 0
_REFINEMENT_PASSES = 2
# the surrogate settings each method reads; a config that sets any other
# surrogate setting away from its default is rejected
METHOD_SETTINGS = {
    EXACT: (),
    SKETCHED: ("sketch_kind", "sketch_size", "eps0", "eps0_schedule"),
    SUBSAMPLED: ("sample_size", "sample_fraction", "alpha"),
    NEWSAMP: ("sample_size", "sample_fraction", "rank"),
    GRADIENT_DESCENT: (),
}
SURROGATE_SETTINGS = frozenset().union(*METHOD_SETTINGS.values())
# the methods whose surrogates draw random numbers from the run seed; a run
# of any other method is the same at every seed
RANDOMIZED_METHODS = frozenset({SKETCHED, SUBSAMPLED, NEWSAMP})
# the setting a method cannot run without
_REQUIRED = {SKETCHED: "sketch_kind", NEWSAMP: "rank"}
# the number classes a field annotated `int` or `float` must belong to
_NUMBER_FIELDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
}


def check_number(name: str, value, kind: str) -> None:
    """Raise DomainError unless `value` is a finite number of `kind` ("int"
    or "float"); `bool` is not an integer here, numpy scalars are."""
    cls, what = _NUMBER_FIELDS[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise DomainError(f"{name} must be {what}, got {value!r}")
    if kind == "float":
        try:
            finite = math.isfinite(float(value))
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise DomainError(f"{name} must be finite, got {value!r}")


def check_number_fields(config) -> None:
    """`check_number` on every field of the dataclass instance that is
    annotated `int` or `float`, optionally `| None` (and then None)."""
    # annotations are strings here (postponed evaluation), e.g. "int | None"
    for f in fields(config):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(config, f.name)
        if kind in _NUMBER_FIELDS and not (value is None and optional):
            check_number(f.name, value, kind)


@dataclass
class SolverConfig:
    """Configuration of one approximate-Newton run.

    `hessian_method` picks the surrogate builder and `METHOD_SETTINGS` the
    surrogate settings it reads; `alpha` adds `alpha I` to the subsampled
    surrogate.  `DomainError` is raised here, before any run, for a value
    out of its range, a surrogate setting the method does not read that is
    not at its default, a sketched method without `sketch_kind` or a NewSamp
    one without `rank`, a sampled method without exactly one of
    `sample_size` and `sample_fraction`, and a positive `eps1` (read only by
    CG) with an exact inner solve.  `sample_fraction` resizes the draw to a
    fraction of the current sampling pool (used for the sample-a-share-of-
    support-vectors protocol).  When `sketch_size` is None the sketch size
    is derived from the accuracy target eps0 of the active schedule.  The
    defaults run full Newton.
    """

    hessian_method: str = EXACT
    sketch_kind: str | None = None
    sketch_size: int | None = None
    sample_size: int | None = None
    sample_fraction: float | None = None
    alpha: float = 0.0
    rank: int | None = None
    eps0: float = 0.5
    eps0_schedule: str = SCHEDULE_CONSTANT
    inner: str = INNER_EXACT
    eps1: float = 0.0
    max_iters: int = 100
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        for name, allowed in (
            ("hessian_method", METHODS),
            ("inner", (INNER_EXACT, INNER_CG)),
            ("eps0_schedule", (SCHEDULE_CONSTANT, SCHEDULE_LOG_DECAY)),
            ("sketch_kind", (None, *ALL_KINDS)),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise DomainError(f"unknown {name} {value!r}, not one of {allowed}")
        for name in ("sketch_size", "sample_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        fraction = self.sample_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise DomainError(f"sample_fraction must be in (0,1], got {fraction}")
        if not self.alpha >= 0.0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        if self.rank is not None and self.rank < 0:
            raise DomainError(f"rank must be >= 0, got {self.rank}")
        if not 0.0 < self.eps0 < 1.0:
            raise DomainError(f"eps0 must be in (0,1), got {self.eps0}")
        if not 0.0 <= self.eps1 < 1.0:
            raise DomainError(f"eps1 must be in [0,1), got {self.eps1}")
        if self.grad_tol <= 0 or self.max_iters < 1:
            raise DomainError("grad_tol must be positive and max_iters >= 1")
        method, reads = self.hessian_method, METHOD_SETTINGS[self.hessian_method]
        unread = SURROGATE_SETTINGS.difference(reads)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in unread and value != f.default:
                raise DomainError(f"{method} does not read {f.name}, got {value!r}")
        required = _REQUIRED.get(method)
        if required is not None and getattr(self, required) is None:
            raise DomainError(f"{method} needs {required}")
        sampled = (self.sample_size, self.sample_fraction)
        if "sample_size" in reads and sampled.count(None) != 1:
            raise DomainError(f"{method} needs one of sample_size, sample_fraction")
        if self.eps1 > 0 and self.inner == INNER_EXACT:
            raise DomainError(
                f"eps1 is read only by the cg inner solve, got {self.eps1}"
            )


@dataclass
class InnerSolveResult:
    p: np.ndarray
    rel_residual: float
    iterations: int
    stalled: bool


@dataclass
class IterationTrace:
    """Per-iteration records of one run.

    `grad_norms[t]` is the full-gradient norm at iterate t (t = 0..T, so one
    more entry than steps taken).  Step arrays are indexed by the step they
    describe.  `grad_mstar_norms` is filled post hoc by the metrics module.
    Iterates and surrogates are not kept: an `on_step` sink sees them.
    """

    status: str = MAX_ITERS
    grad_norms: list[float] = field(default_factory=list)
    gradients: list[np.ndarray] = field(default_factory=list)
    inner_residuals: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    grad_mstar_norms: list[float] | None = None
    x_final: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.inner_residuals)


class Step(NamedTuple):
    """Step t of a run: its iterate `x`, surrogate `H` and inner solve."""

    t: int
    x: np.ndarray
    H: ApproxHessian
    inner: InnerSolveResult


def condition_bound(obj: FiniteSumObjective) -> float:
    """Upper bound kappa >= L / mu used for the inner-solve tolerance."""
    return max(1.0, obj.L / obj.sigma)


def superlinear_schedule(t: int) -> float:
    """Iteration-dependent accuracy target 1 / log(1 + t), clamped to (0, 0.9]."""
    if t < 1:
        return 0.9
    return min(1.0 / math.log(1.0 + t), 0.9)


def solve_inner(
    H: ApproxHessian | np.ndarray,
    g: np.ndarray,
    eps1: float,
    kappa: float,
    mode: str = INNER_EXACT,
) -> InnerSolveResult:
    """Approximately minimize 0.5 p^T H p - p^T g.

    Exact mode calls `H.solve` (the surrogate's own factorization) plus two
    passes of iterative refinement with residuals from `H.matvec`.  CG mode
    needs only `H.matvec`; it iterates until ||g - H p|| <= (eps1 / kappa)
    ||g|| with a floor of 1e-12 ||g||, capped at 10 d iterations; if the cap
    is hit the best iterate is returned with `stalled` set instead of
    raising.  A plain matrix is taken as a dense surrogate.
    """
    if mode not in (INNER_EXACT, INNER_CG):
        raise DomainError(f"unknown inner mode {mode!r}")
    if kappa < 1.0:
        raise DomainError(f"kappa must be >= 1, got {kappa}")
    if not isinstance(H, ApproxHessian):
        M = np.asarray(H, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ShapeError(f"H has shape {M.shape}, need a square matrix")
        H = DenseHessian(M)
    g = np.asarray(g, dtype=float)
    if H.d != g.shape[0]:
        raise ShapeError(f"H has dimension {H.d}, g has shape {g.shape}")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return InnerSolveResult(np.zeros_like(g), 0.0, 0, False)

    if mode == INNER_EXACT:
        p = H.solve(g)
        for _ in range(_REFINEMENT_PASSES):
            resid = g - H.matvec(p)
            p = p + H.solve(resid)
        rel = float(np.linalg.norm(g - H.matvec(p))) / gnorm
        return InnerSolveResult(p, rel, 1, False)

    target = max(eps1 / kappa, _CG_FLOOR) * gnorm
    cap = 10 * H.d
    p = np.zeros_like(g)
    r = g.copy()
    q = r.copy()
    rs = float(r @ r)
    best_p, best_res = p.copy(), math.sqrt(rs)
    iterations = 0
    for _ in range(cap):
        if not math.sqrt(rs) > target:  # also stops on a NaN residual
            break
        Hq = H.matvec(q)
        curvature = float(q @ Hq)
        if curvature <= 0.0:
            raise NotPositiveDefinite("CG met non-positive curvature")
        a = rs / curvature
        p = p + a * q
        r = r - a * Hq
        rs_new = float(r @ r)
        iterations += 1
        if math.sqrt(rs_new) < best_res:
            best_p, best_res = p.copy(), math.sqrt(rs_new)
        q = r + (rs_new / rs) * q
        rs = rs_new
    rel = float(np.linalg.norm(g - H.matvec(best_p))) / gnorm
    stalled = rel * gnorm > target * (1.0 + 1e-12)
    return InnerSolveResult(best_p, rel, iterations, stalled)


def _build_hessian(obj, x, cfg: SolverConfig, t: int) -> ApproxHessian:
    method = cfg.hessian_method
    if method not in RANDOMIZED_METHODS:
        if method == EXACT:
            return exact_hessian(obj, x)
        return gradient_descent_hessian(obj)
    seed_t = rng.child_seed(cfg.seed, 1, t)
    if method == SKETCHED:
        size = cfg.sketch_size
        if size is None:
            # A decaying schedule wants the achieved accuracy to track
            # eps0(t); a constant target wants it certified below eps0.
            if cfg.eps0_schedule == SCHEDULE_LOG_DECAY:
                size = tracking_sketch_size(
                    cfg.sketch_kind, obj.d, superlinear_schedule(t)
                )
            else:
                size = recommended_sketch_size(cfg.sketch_kind, obj.d, cfg.eps0)
        # a Gaussian sketch acts on the Hessian's Cholesky factor U, which the
        # memo keeps per curvature key for the exact steps and the M*
        # reference: U^T U = B^T B, so B U^-1 has orthonormal columns, S B U^-1
        # is again i.i.d. N(0, 1/s) (rotation invariance) and S U has the law
        # of S B
        if cfg.sketch_kind == GAUSSIAN:
            B = exact_hessian(obj, x).factor
        else:
            B = obj.hessian_factor(x)
        if cfg.sketch_kind == LEVERAGE_SCORE:
            scores = obj.memoized("leverage_scores", x, lambda: sketch.leverage_scores(B))
            S = make_leverage_sketch(B, size, seed_t, scores=scores)
        else:
            S = make_oblivious_sketch(cfg.sketch_kind, size, B.shape[0], seed_t)
        return sketched_hessian(B, S)
    size, fraction = cfg.sample_size, cfg.sample_fraction
    if method == NEWSAMP:
        return newsamp_hessian(obj, x, size, cfg.rank, seed_t, fraction=fraction)
    return subsampled_hessian(obj, x, size, seed_t, cfg.alpha, fraction=fraction)


def approximate_newton_run(
    obj: FiniteSumObjective, cfg: SolverConfig, x0: np.ndarray, on_step=None
) -> IterationTrace:
    """Run the approximate-Newton loop from x0 until convergence, the
    iteration budget, or a non-finite gradient norm or one above
    `DIVERGENCE_GUARD`.

    Each step solves against the full gradient its stop test reads.
    `on_step`, when given, is called with the `Step` of every step after its
    inner solve and before the update (`x - inner.p` is the next iterate);
    the loop never writes into an array it handed out.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.isfinite(x).all():
        raise DomainError("x0 must be finite")
    kappa = condition_bound(obj)
    trace = IterationTrace()
    while True:
        g = obj.gradient(x)
        gnorm = float(np.linalg.norm(g))
        trace.grad_norms.append(gnorm)
        trace.gradients.append(g)
        if not gnorm <= DIVERGENCE_GUARD:  # also ends on a NaN norm
            trace.status = DIVERGED
            break
        if gnorm <= cfg.grad_tol:
            trace.status = CONVERGED
            break
        if trace.n_steps >= cfg.max_iters:
            trace.status = MAX_ITERS
            break

        t = trace.n_steps
        tic = time.perf_counter()
        H = _build_hessian(obj, x, cfg, t)
        inner = solve_inner(H, g, cfg.eps1, kappa, cfg.inner)
        trace.inner_residuals.append(inner.rel_residual)
        trace.wall_ms.append((time.perf_counter() - tic) * 1e3)
        if on_step is not None:  # outside the step's wall time
            on_step(Step(t, x, H, inner))
        x = x - inner.p
    trace.x_final = x
    return trace

