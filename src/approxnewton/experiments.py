"""Config-driven experiment runner with CSV and plot-data output.

An experiment is a problem, a grid of solver cells, and a seed list.  Every
(cell, seed) pair produces a `trace_<label>_s<seed>.csv` file and one row in
`summary.csv`; a tidy `plotdata_<experiment>.csv` (series_label, t,
residual_mstar) collects the residual curves, and `render_svg` can turn it
into a minimal log-scale line chart.  Wall-clock timings go to
`timing_<tag>.csv` sidecars and `metadata.txt`, so re-running a config with
the same seeds reproduces the deterministic CSV bodies byte for byte.  The
config is checked before anything runs, and the output directory is created
only once every run has ended.

Exit codes: 0 all runs completed, 1 configuration error, 2 some runs failed
(failures are recorded in the summary, never fatal).
"""

from __future__ import annotations

import html
import json
import math
import os
import sys
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy
import yaml

from . import metrics, rng, sketch, solvers
from .errors import ApproxNewtonError, DomainError
from .hessian_approx import EXACT, SKETCHED, SUBSAMPLED
from .problems import (
    FiniteSumObjective,
    LeastSquaresObjective,
    load_libsvm,
    svm_hinge2_objective,
    synthetic_spectrum_matrix,
    synthetic_spiked_matrix,
    synthetic_two_class,
)

LIPSCHITZ_FREE = "lipschitz_free"
SKETCH_SWEEP = "sketch_sweep"
REGULARIZED_SWEEP = "regularized_sweep"
NEWSAMP_SWEEP = "newsamp_sweep"
EMBEDDING_CHECK = "embedding_check"
CUSTOM = "custom"
EXPERIMENTS = (
    LIPSCHITZ_FREE,
    SKETCH_SWEEP,
    REGULARIZED_SWEEP,
    NEWSAMP_SWEEP,
    EMBEDDING_CHECK,
    CUSTOM,
)

OUTPUT_ENV_VAR = "APPROXNEWTON_OUT"


def resolve_output_dir(out: str | None = None) -> str:
    """`out` when given, an empty one too, else $APPROXNEWTON_OUT when set,
    else `approxnewton-out`."""
    return os.environ.get(OUTPUT_ENV_VAR, "approxnewton-out") if out is None else out


TRACE_COLUMNS = ("t", "grad_norm", "grad_mstar_norm", "inner_residual", "status")
SUMMARY_COLUMNS = (
    "tag",
    "seed",
    "status",
    "iters",
    "final_grad_mstar",
    "rate_class",
    "rho",
)
EMBEDDING_COLUMNS = ("kind", "seed", "achieved_eps", "holds")

# the cell keys `run_cell` reads itself; every other cell key is a
# `SolverConfig` field (`method` sets `hessian_method`, the run sets `seed`)
RUN_KEYS = frozenset({"label", "method", "warm_start_steps"})
CELL_KEYS = RUN_KEYS | (
    {f.name for f in fields(solvers.SolverConfig)}
    - {"hessian_method", "seed"}
)
# cell methods that name a preset, with the `SolverConfig` settings each fixes
PRESETS = {
    "full_newton": {"hessian_method": EXACT, "inner": solvers.INNER_EXACT},
    "newton_cg": {"hessian_method": EXACT, "inner": solvers.INNER_CG},
    "regularized_subsampled": {"hessian_method": SUBSAMPLED},
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
NAME_MAX = 255  # bytes in a file name on common file systems
SVG_SIZE = (640, 420)  # width and height of a rendered chart, in px


@dataclass
class ExperimentConfig:
    """One experiment; `workers` is how many grid cells run at once (default:
    the cores BLAS leaves free, see `default_workers`)."""

    experiment: str
    problem: dict
    grid: list[dict]
    seeds: list[int]
    output_dir: str
    max_iters: int = 100
    grad_tol: float = 1e-8
    workers: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        # the shape of the config before its contents
        if not isinstance(self.problem, Mapping):
            raise DomainError(f"problem must be a mapping, got {self.problem!r}")
        if not isinstance(self.grid, list):
            raise DomainError(f"grid must be a list of cells, got {self.grid!r}")
        for cell in self.grid:
            if not isinstance(cell, Mapping):
                raise DomainError(f"grid cell {cell!r} is not a mapping")
        if not isinstance(self.seeds, list):
            raise DomainError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise DomainError(
                f"output_dir must be a non-empty string, got {self.output_dir!r}"
            )
        if not self.grid:
            raise DomainError("grid must not be empty")
        if not self.seeds:
            raise DomainError("seed list must not be empty")
        solvers.check_number_fields(self)
        if self.workers is not None and self.workers < 1:
            raise DomainError(f"workers must be a positive integer, got {self.workers}")


@dataclass
class RunOutcome:
    """One run of one cell: its trace, or the error that ended it, kept as
    "<Type>: <message>" so that no traceback keeps the run's arrays alive.
    `same_as` is the tag of the run whose outcome this seed reuses, when
    its cell's method draws no random numbers."""

    tag: str
    seed: int
    trace: solvers.IterationTrace | None = None
    rate_class: str = ""
    rho: float | None = None
    error: str | None = None
    same_as: str | None = None


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# the keys of each problem kind besides `kind`: (required, optional)
PROBLEM_KEYS = {
    "synthetic": ({"n", "d", "decay"}, {"seed"}),
    "spiked": ({"n", "d"}, {"seed", "n_heavy", "heavy_scale"}),
    "two_class": ({"n", "d"}, {"seed", "separation", "C"}),
    "libsvm": ({"path"}, {"binarize_class", "C"}),
}
# the one problem kind of the embedding check, which builds no objective
EMBEDDING_PROBLEM = {"embedding": (set(), {"d", "m", "eps", "seed"})}
EMBEDDING_CELL_KEYS = frozenset({"sketch_kind", "sketch_size"})
# the type each problem key's generator needs: "int", "float" or "str"
PROBLEM_KEY_TYPES = {
    **dict.fromkeys(("n", "d", "m", "seed", "n_heavy"), "int"),
    **dict.fromkeys(("decay", "eps", "separation", "C", "heavy_scale"), "float"),
    "binarize_class": "float",
    "path": "str",
}


def check_seed(seed) -> None:
    # `rng.generator` keys its Philox generator with one uint64
    solvers.check_number("seed", seed, "int")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")


def _check_problem(problem, kinds: dict) -> None:
    """Raise DomainError unless `problem` is a spec of one of `kinds`, a
    {kind: (required keys, optional keys)} form, with every value of the
    type `PROBLEM_KEY_TYPES` names."""
    if not isinstance(problem, Mapping):
        raise DomainError(f"problem must be a mapping, got {problem!r}")
    kind = problem.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"unknown problem kind {kind!r}")
    required, optional = kinds[kind]
    unknown = problem.keys() - required - optional - {"kind"}
    if unknown:
        raise DomainError(f"unknown {kind} problem keys: {sorted(unknown, key=str)}")
    missing = required - problem.keys()
    if missing:
        raise DomainError(f"{kind} problem needs keys: {sorted(missing)}")
    for key in sorted(problem.keys() - {"kind"}):
        value, need = problem[key], PROBLEM_KEY_TYPES[key]
        if need != "str":
            solvers.check_number(key, value, need)
        elif not isinstance(value, str):
            raise DomainError(f"{key} must be a string, got {value!r}")
    if "seed" in problem:
        check_seed(problem["seed"])


def build_objective(problem: dict) -> FiniteSumObjective:
    """Instantiate the objective described by a problem spec dict."""
    _check_problem(problem, PROBLEM_KEYS)
    kind = problem["kind"]
    if kind == "synthetic":
        ds = synthetic_spectrum_matrix(
            problem["n"], problem["d"], problem["decay"], problem.get("seed", 0)
        )
        return LeastSquaresObjective(ds)
    if kind == "spiked":
        ds = synthetic_spiked_matrix(
            problem["n"],
            problem["d"],
            problem.get("seed", 0),
            n_heavy=problem.get("n_heavy"),
            heavy_scale=problem.get("heavy_scale", 0.3),
        )
        return LeastSquaresObjective(ds)
    if kind == "two_class":
        ds = synthetic_two_class(
            problem["n"],
            problem["d"],
            problem.get("seed", 0),
            separation=problem.get("separation", 2.0),
        )
        return svm_hinge2_objective(ds, C=problem.get("C", 1.0))
    ds = load_libsvm(problem["path"], binarize_class=problem.get("binarize_class"))
    return svm_hinge2_objective(ds, C=problem.get("C", 1.0))


def _solver_config(cell: dict, cfg: ExperimentConfig, seed: int) -> solvers.SolverConfig:
    """The keys the cell sets, the experiment's `max_iters` and `grad_tol`
    where it sets none, and the `SolverConfig` defaults for the rest."""
    settings = {key: val for key, val in cell.items() if key not in RUN_KEYS}
    if "method" in cell:
        method = cell["method"]
        settings.update(PRESETS.get(method, {"hessian_method": method}))
    settings.setdefault("max_iters", cfg.max_iters)
    settings.setdefault("grad_tol", cfg.grad_tol)
    return solvers.SolverConfig(seed=seed, **settings)


def _label(cell: dict) -> str:
    return cell.get("label") or cell.get("method", "run")


def _tag(cell: dict, seed: int) -> str:
    return f"{_label(cell)}_s{seed}"


def _run_seeds(cell: dict, cfg: ExperimentConfig) -> list[int]:
    """The seeds a cell runs at: every seed, or the first alone when its
    method draws no random numbers, so that every seed's run is the same."""
    method = _solver_config(cell, cfg, cfg.seeds[0]).hessian_method
    return cfg.seeds if method in solvers.RANDOMIZED_METHODS else cfg.seeds[:1]


def run_cell(
    obj: FiniteSumObjective,
    ref: metrics.MstarReference,
    cell: dict,
    cfg: ExperimentConfig,
    seed: int,
) -> RunOutcome:
    """Execute one grid cell at one seed and classify its trace."""
    tag = _tag(cell, seed)
    try:
        x0 = np.zeros(obj.d)
        warm = cell.get("warm_start_steps", 0)
        if warm:
            warm_cfg = solvers.SolverConfig(max_iters=warm, grad_tol=1e-300)
            x0 = solvers.approximate_newton_run(obj, warm_cfg, x0).x_final
        trace = solvers.approximate_newton_run(obj, _solver_config(cell, cfg, seed), x0)
        metrics.fill_mstar_norms(trace, ref)
        trace.gradients.clear()  # r_t is all the tables read of them
        try:
            report = metrics.classify_rate(trace, ref)
            rate_class, rho = report.classification, report.rho
        except ApproxNewtonError:
            rate_class, rho = "insufficient_data", None
        return RunOutcome(tag, seed, trace, rate_class, rho)
    except (ApproxNewtonError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        return RunOutcome(tag, seed, error=error)


def _trace_rows(trace: solvers.IterationTrace):
    for t, mstar in enumerate(trace.grad_mstar_norms):
        stepped = t < trace.n_steps
        yield (
            t,
            trace.grad_norms[t],
            mstar,
            trace.inner_residuals[t] if stepped else None,
            "" if stepped else trace.status,
        )


def _summary_row(o: RunOutcome) -> tuple:
    trace = o.trace
    if trace is None:  # an errored run: "error:<Type>"
        return (o.tag, o.seed, "error:" + o.error.split(":")[0], 0, None, "", None)
    final = trace.grad_mstar_norms[-1]
    return (o.tag, o.seed, trace.status, trace.n_steps, final, o.rate_class, o.rho)


def _check_config(cfg: ExperimentConfig) -> None:
    """Raise DomainError for a config that cannot run as written."""
    for seed in cfg.seeds:
        check_seed(seed)
    if cfg.experiment == EMBEDDING_CHECK:
        _check_problem(cfg.problem, EMBEDDING_PROBLEM)
        for cell in cfg.grid:
            unknown = sorted(cell.keys() - EMBEDDING_CELL_KEYS, key=str)
            if unknown:
                raise DomainError(f"unknown embedding cell keys: {unknown}")
            # an embedding cell holds the sketch settings of a sketched method
            solvers.SolverConfig(hessian_method=SKETCHED, **cell)
        return
    for cell in cfg.grid:
        unknown = set(cell) - CELL_KEYS
        if unknown:
            raise DomainError(f"unknown cell keys: {sorted(unknown, key=str)}")
        if not isinstance(cell.get("method", ""), str):
            raise DomainError(f"method must be a string, got {cell['method']!r}")
        fixed = sorted(PRESETS.get(cell.get("method"), {}).keys() & cell.keys())
        if fixed:
            raise DomainError(f"method {cell['method']} fixes {fixed}: {cell}")
        warm = cell.get("warm_start_steps", 0)
        solvers.check_number("warm_start_steps", warm, "int")
        if warm < 0:
            raise DomainError(f"warm_start_steps must be >= 0, got {warm}")
        _solver_config(cell, cfg, cfg.seeds[0])
    # a run's output files are named by its label and seed, and its CSV
    # rows hold the label as one field
    labels = [str(_label(cell)) for cell in cfg.grid]
    seed_digits = max(len(str(seed)) for seed in cfg.seeds)
    for label in labels:
        if any(sep and sep in label for sep in (os.sep, os.altsep, "\0")):
            raise DomainError(f"label {label!r} is not a plain file name")
        if any(char in label for char in ",\n\r"):
            raise DomainError(f"label {label!r} does not fit in a CSV field")
        # the longest name a run writes is timing_<label>_s<seed>.csv
        if len(f"timing_{label}_s.csv".encode()) + seed_digits > NAME_MAX:
            raise DomainError(f"label {label[:20]!r}... is too long for a file name")
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise DomainError(f"cells share a label: {repeated}")
    if len(set(cfg.seeds)) < len(cfg.seeds):
        raise DomainError(f"repeated seeds: {cfg.seeds}")


def _embedding_tables(cfg: ExperimentConfig) -> dict:
    """Check every grid sketch kind at every seed on one Gaussian m x d
    matrix; the success rate per kind is the Monte-Carlo embedding check."""
    problem = cfg.problem
    d = problem.get("d", 10)
    m = problem.get("m", 40 * d)
    eps = problem.get("eps", 0.5)
    if not (1 <= d <= m and 0.0 < eps < 1.0):
        raise DomainError(f"embedding needs 1 <= d <= m and eps in (0,1), "
                          f"got d={d}, m={m}, eps={eps}")
    A = rng.generator(problem.get("seed", 0)).standard_normal((m, d))
    rows, rates = [], []
    for cell in cfg.grid:
        kind = cell["sketch_kind"]
        s = cell.get("sketch_size") or sketch.recommended_sketch_size(kind, d, eps)
        successes = 0
        for seed in cfg.seeds:
            if kind == sketch.LEVERAGE_SCORE:
                S = sketch.make_leverage_sketch(A, s, seed)
            else:
                S = sketch.make_oblivious_sketch(kind, s, m, seed)
            report = sketch.verify_subspace_embedding(S, A, eps)
            successes += report.holds
            rows.append((kind, seed, report.achieved_eps, int(report.holds)))
        rates.append((kind, s, successes / len(cfg.seeds)))
    return {
        "embedding_summary.csv": (EMBEDDING_COLUMNS, rows),
        "embedding_rates.csv": (("kind", "sketch_size", "success_rate"), rates),
    }


def _grid_tables(cfg: ExperimentConfig, outcomes: list[RunOutcome]) -> dict:
    """The grid's tables; each row is made as its file is written."""
    traced = [o for o in outcomes if o.trace is not None]
    tables = {}
    for o in traced:
        tables[f"trace_{o.tag}.csv"] = (TRACE_COLUMNS, _trace_rows(o.trace))
        tables[f"timing_{o.tag}.csv"] = (("t", "wall_ms"), enumerate(o.trace.wall_ms))
    tables["summary.csv"] = (SUMMARY_COLUMNS, map(_summary_row, outcomes))
    tables[f"plotdata_{cfg.experiment}.csv"] = (
        ("series_label", "t", "residual_mstar"),
        ((o.tag, t, r) for o in traced for t, r in enumerate(o.trace.grad_mstar_norms)),
    )
    return tables


def default_workers(n_jobs: int) -> int:
    """How many grid cells run at once when `workers` is unset: the cores
    that OpenBLAS leaves free.  Every cell's BLAS calls run on OpenBLAS's
    pool, which is as wide as the first of `BLAS_THREAD_VARS` set to a
    positive integer (capped at the core count), or else every core; more
    cells would oversubscribe the cores."""
    cpu = os.cpu_count() or 1
    blas = cpu
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            blas = min(threads, cpu)
            break
    return max(1, min(n_jobs, cpu // blas))


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run every grid cell at every seed (or the embedding check), then
    write the tables and `metadata.txt`.

    A cell whose method draws no random numbers (exact Newton, Newton-CG,
    gradient descent) runs once, at the first seed, and its outcome is
    written under every seed: the runs would be the same.  The distinct
    runs go `cfg.workers` at once, by default the cores BLAS leaves free
    (`default_workers`), and share the objective, so its memo holds what
    they have in common: the gradient at each x, and the Hessian and its
    factors at each curvature key."""
    _check_config(cfg)
    started = time.time()
    workers, outcomes, memo, setup_ms = 1, [], None, {}
    if cfg.experiment == EMBEDDING_CHECK:
        tables = _embedding_tables(cfg)
    else:
        tic = time.perf_counter()
        obj = build_objective(cfg.problem)
        built = time.perf_counter()
        ref = metrics.compute_mstar_reference(obj, np.zeros(obj.d))
        setup_ms = {
            "build_objective_ms": 1e3 * (built - tic),
            "reference_ms": 1e3 * (time.perf_counter() - built),
        }
        runs = [(i, seed) for i, cell in enumerate(cfg.grid)
                for seed in _run_seeds(cell, cfg)]
        workers = cfg.workers or default_workers(len(runs))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = pool.map(lambda r: run_cell(obj, ref, cfg.grid[r[0]], cfg, r[1]),
                            runs)
            ran = dict(zip(runs, done))
        for i, cell in enumerate(cfg.grid):
            first = ran[i, cfg.seeds[0]]
            for seed in cfg.seeds:
                outcome = ran.get((i, seed))
                if outcome is None:
                    outcome = replace(first, tag=_tag(cell, seed), seed=seed,
                                      same_as=first.tag)
                outcomes.append(outcome)
        memo = obj.memo
        tables = _grid_tables(cfg, outcomes)
    os.makedirs(cfg.output_dir, exist_ok=True)
    for name, (columns, rows) in tables.items():
        _write_csv(os.path.join(cfg.output_dir, name), columns, rows)
    _write_metadata(cfg, started, workers, outcomes, memo, setup_ms)
    return 2 if any(o.error is not None for o in outcomes) else 0


def _write_metadata(cfg, started, workers, outcomes, memo, setup_ms) -> None:
    # Everything time- or machine-dependent lives here, outside the
    # deterministic CSVs.
    with open(os.path.join(cfg.output_dir, "metadata.txt"), "w") as fh:
        fh.write(f"experiment: {cfg.experiment}\n")
        # values JSON cannot hold (a YAML date as a label) are written as str
        config = json.dumps(asdict(cfg), sort_keys=True, default=str)
        fh.write(f"config: {config}\n")
        fh.write(f"started_unix: {started:.3f}\n")
        fh.write(f"elapsed_s: {time.time() - started:.3f}\n")
        fh.write(f"python: {sys.version.split()[0]}\n")
        fh.write(f"numpy: {np.__version__}\n")
        fh.write(f"scipy: {scipy.__version__}\n")
        for var in BLAS_THREAD_VARS:
            if var in os.environ:
                fh.write(f"{var}: {os.environ[var]}\n")
        fh.write(f"workers: {workers}\n")
        for name, ms in setup_ms.items():
            fh.write(f"{name}: {ms:.3f}\n")
        if memo is not None:
            for kind, (hits, misses, held) in memo.stats().items():
                fh.write(f"memo {kind}: hits={hits} misses={misses} bytes={held}\n")
        for o in outcomes:
            if o.same_as is not None:
                fh.write(f"run {o.tag}: same run as {o.same_as}\n")
                continue
            wall_ms = sum(o.trace.wall_ms) if o.trace is not None else 0.0
            fh.write(f"run {o.tag}: total_wall_ms={wall_ms:.3f}\n")
        for o in outcomes:
            if o.error is not None:
                fh.write(f"error {o.tag}: {o.error}\n")


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML experiment file, applying CLI overrides on top."""
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            message = " ".join(str(exc).split())  # the parser's spans lines
            raise DomainError(f"{path} is not valid YAML: {message}") from exc
    if not isinstance(data, dict):
        raise DomainError("config file must contain a mapping")
    data = dict(data)
    for key, val in (overrides or {}).items():
        if val is not None:
            data[key] = val
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown, key=str)}")
    data.setdefault("output_dir", resolve_output_dir())
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise DomainError(f"bad config: {exc}") from exc


def default_config(
    experiment: str, output_dir: str, full_scale: bool = False
) -> ExperimentConfig:
    """Built-in experiment definitions reproducing the study's three setups;
    only the two spiked sweeps have a `full_scale` (8000 x 5000) variant."""
    if full_scale and experiment not in (REGULARIZED_SWEEP, NEWSAMP_SWEEP):
        raise DomainError(f"{experiment!r} has no full-scale definition")
    if experiment == LIPSCHITZ_FREE:
        # separation/C chosen so the support set evolves under Newton instead
        # of the ridge term freezing it (see README calibration notes)
        return ExperimentConfig(
            experiment=experiment,
            problem={
                "kind": "two_class",
                "n": 2000,
                "d": 50,
                "seed": 20,
                "separation": 3.0,
                "C": 50.0,
            },
            grid=[
                {
                    "label": "subsampled-5pct-sv",
                    "method": "subsampled",
                    "sample_fraction": 0.05,
                },
                {"label": "newton", "method": "exact"},
            ],
            seeds=[0],
            output_dir=output_dir,
            max_iters=200,
            grad_tol=1e-10,
        )
    if experiment == SKETCH_SWEEP:
        d = 54
        grid = []
        for kind in sketch.ALL_KINDS:
            for mult in (2, 4, 8):
                grid.append(
                    {
                        "label": f"{kind}-l{mult}d",
                        "method": "sketched",
                        "sketch_kind": kind,
                        "sketch_size": mult * d,
                    }
                )
        return ExperimentConfig(
            experiment=experiment,
            problem={"kind": "synthetic", "n": 10000, "d": d, "decay": 1.2, "seed": 7},
            grid=grid,
            seeds=[0, 1, 2],
            output_dir=output_dir,
            max_iters=150,
            grad_tol=1e-8,
        )
    if experiment in (REGULARIZED_SWEEP, NEWSAMP_SWEEP):
        if full_scale:
            n, d, sizes = 8000, 5000, (100, 300, 600)
            max_iters = 10000
        else:
            n, d, sizes = 800, 500, (10, 30, 60)
            max_iters = 2500
        problem = {"kind": "spiked", "n": n, "d": d, "seed": 11}
        grid = []
        if experiment == REGULARIZED_SWEEP:
            for size in sizes:
                for alpha in (1e-8, 1.2, 1.6, 2.2):
                    grid.append(
                        {
                            "label": f"S{size}-alpha{alpha:g}",
                            "method": "regularized_subsampled",
                            "sample_size": size,
                            "alpha": alpha,
                        }
                    )
        else:
            for size in sizes[::2]:
                # NewSamp needs a sampled root of more rows than its rank
                for rank in (r for r in (2, 20) if r < size):
                    grid.append(
                        {
                            "label": f"S{size}-r{rank}",
                            "method": "newsamp",
                            "sample_size": size,
                            "rank": rank,
                        }
                    )
        return ExperimentConfig(
            experiment=experiment,
            problem=problem,
            grid=grid,
            seeds=[0],
            output_dir=output_dir,
            max_iters=max_iters,
            grad_tol=1e-6,
        )
    if experiment == EMBEDDING_CHECK:
        return ExperimentConfig(
            experiment=experiment,
            problem={"kind": "embedding", "d": 10, "m": 400, "eps": 0.5, "seed": 3},
            grid=[{"sketch_kind": kind} for kind in sketch.ALL_KINDS],
            seeds=list(range(200)),
            output_dir=output_dir,
        )
    raise DomainError(f"no default config for experiment {experiment!r}")


def _run_file(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.isfile(path):
        raise DomainError(f"expected file missing: {path}")
    return path


def emit_plot_data(run_dir: str) -> list[str]:
    """Render `plot_replot.svg` from a finished run directory's own
    `plotdata_<experiment>.csv`, the experiment named in its `metadata.txt`.

    Returns the paths written; raises DomainError when either file is
    missing or the plot data holds no curve.
    """
    metadata = _run_file(run_dir, "metadata.txt")
    with open(metadata) as fh:
        names = [line.partition(": ")[2].strip()
                 for line in fh if line.startswith("experiment: ")]
    if not names:
        raise DomainError(f"no experiment line in {metadata}")
    series: dict[str, list[tuple[int, float]]] = {}
    with open(_run_file(run_dir, f"plotdata_{names[0]}.csv")) as fh:
        fh.readline()
        for line in fh:
            label, t, residual = line.rstrip("\n").split(",")
            pts = series.setdefault(label, [])
            if residual:
                pts.append((int(t), float(residual)))
    if not series:
        raise DomainError("no trace data found to plot")
    out_svg = os.path.join(run_dir, "plot_replot.svg")
    render_svg(series, out_svg)
    return [out_svg]


def render_svg(series: dict[str, list[tuple[int, float]]], path: str) -> None:
    """Tiny static line chart: iteration on x, residual on a log10 y-axis."""
    width, height = SVG_SIZE
    pad = 50
    pts_all = [p for pts in series.values() for p in pts if 0 < p[1] < math.inf]
    if not pts_all:
        raise DomainError("no positive residuals to plot")
    tmax = max(p[0] for p in pts_all) or 1
    ymin = math.log10(min(p[1] for p in pts_all))
    ymax = math.log10(max(p[1] for p in pts_all))
    if ymax - ymin < 1e-9:
        ymax = ymin + 1.0

    def sx(t):
        return pad + (width - 2 * pad) * t / tmax

    def sy(v):
        frac = (math.log10(v) - ymin) / (ymax - ymin)
        return height - pad - (height - 2 * pad) * frac

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" font-size="12">iteration</text>',
        f'<text x="12" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 12 {height // 2})">residual (log scale)</text>',
    ]
    for i, (label, pts) in enumerate(sorted(series.items())):
        pos = [(t, v) for t, v in pts if 0 < v < math.inf]
        if not pos:
            continue
        coords = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in pos)
        color = palette[i % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="10" '
            f'fill="{color}">{html.escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
