"""Approximate Newton methods with randomized Hessian surrogates.

Sketched, subsampled, regularized-subsampled and tail-floored subsampled
Newton variants, full Newton, Newton-CG and gradient descent behind one
driver loop, plus the spectral certificates (subspace embedding, two-sided
sandwich), reference-norm convergence-rate measurement, and a config-driven
experiment harness.
"""

from .errors import (
    ApproxNewtonError,
    DomainError,
    InsufficientData,
    LabelDomain,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
    ReferenceNotConverged,
    ShapeError,
    UnsupportedLabels,
)
from .hessian_approx import (
    ApproxHessian,
    SandwichReport,
    check_spectral_sandwich,
    epsilon0_newsamp,
    epsilon0_regularized,
    gradient_descent_hessian,
    newsamp_hessian,
    sketched_hessian,
    subsampled_hessian,
    uniform_sample_size,
)
from .metrics import (
    MstarReference,
    RateReport,
    classify_rate,
    compute_mstar_reference,
    contraction_diagnostics,
    distance_bound_from_gradient,
    fill_mstar_norms,
    mstar_norm,
)
from .problems import (
    DatasetMatrix,
    FiniteSumObjective,
    LeastSquaresObjective,
    SvmHinge2Objective,
    least_squares_objective,
    load_libsvm,
    svm_hinge2_objective,
    synthetic_spectrum_matrix,
    synthetic_two_class,
)
from .sketch import (
    EmbeddingReport,
    SketchOperator,
    apply_sketch,
    make_leverage_sketch,
    make_oblivious_sketch,
    recommended_sketch_size,
    verify_subspace_embedding,
)
from .solvers import (
    IterationTrace,
    SolverConfig,
    approximate_newton_run,
    solve_inner,
    superlinear_schedule,
)

__version__ = "0.1.0"
