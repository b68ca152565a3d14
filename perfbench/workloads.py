"""The benchmark's three workloads, written out as experiment configs.

Every workload is an `experiments.ExperimentConfig` built from the keys the
README documents for config files, so a run here is what
`approxnewton run <config.yaml>` gives a user.  `workers` is left unset: the
harness resolves its own pool size.  Why each workload exists is written in
`perfbench/README.md`.

Each workload has a number of run seeds per benchmark seed: the benchmark's
`--seed n` selects the run seeds `[n*k, ..., n*k + k - 1]`, so distinct
benchmark seeds never share a run seed.

The expectations were recorded for benchmark seeds 0 to 99 (run seeds 0 to
99, and 0 to 299 for `svm_support`); `recorded` lists every run there whose
outcome differs from its cell's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class Expectation:
    """What one cell must produce.

    `status` is the required run status.  `rate_classes` is the set of
    accepted rate classes, or None when only the status is gated.
    """

    status: str
    rate_classes: frozenset | None


def _expect(status: str, *classes: str) -> Expectation:
    return Expectation(status, frozenset(classes) if classes else None)


@dataclass
class Workload:
    name: str
    experiment: str
    problem: dict
    grid: list[dict]
    seeds_per_run: int
    max_iters: int
    grad_tol: float
    # per-cell prediction, keyed by cell label
    predicted: dict[str, Expectation]
    # recorded outcomes that differ from the per-cell prediction,
    # keyed by (cell label, run seed)
    recorded: dict[tuple[str, int], Expectation] = field(default_factory=dict)

    def run_seeds(self, seed: int) -> list[int]:
        k = self.seeds_per_run
        return [seed * k + i for i in range(k)]

    def expectation(self, label: str, run_seed: int) -> Expectation:
        return self.recorded.get((label, run_seed), self.predicted[label])

    def config(self, seed: int, output_dir: str, max_iters: int | None = None):
        """The experiment config; `max_iters` caps every cell (smoke runs)."""
        from approxnewton import experiments

        grid = [dict(cell) for cell in self.grid]
        cap = self.max_iters
        if max_iters is not None:
            cap = min(cap, max_iters)
            for cell in grid:
                cell["max_iters"] = min(cell.get("max_iters", cap), cap)
        return experiments.ExperimentConfig(
            experiment=self.experiment,
            problem=dict(self.problem),
            grid=grid,
            seeds=self.run_seeds(seed),
            output_dir=output_dir,
            max_iters=cap,
            grad_tol=self.grad_tol,
        )


def _sketch_ls() -> Workload:
    d = 54
    grid, predicted = [], {}
    for kind in ("gaussian", "sparse_embedding", "leverage_score"):
        for mult in (2, 4, 8):
            label = f"{kind}-l{mult}d"
            cell = {
                "label": label,
                "method": "sketched",
                "sketch_kind": kind,
                "sketch_size": mult * d,
            }
            if mult == 2:
                predicted[label] = _expect(STATUS_DIVERGED, "diverged")
            elif mult == 4:
                # 4d needs 74 to 107 steps depending on the seed; the cap
                # keeps the work per call the same for every seed
                cell["max_iters"] = 40
                predicted[label] = _expect(STATUS_MAX_ITERS, "linear")
            else:
                predicted[label] = _expect(STATUS_CONVERGED, "linear")
            grid.append(cell)
    return Workload(
        name="sketch_ls",
        experiment="sketch_sweep",
        problem={"kind": "synthetic", "n": 5000, "d": d, "decay": 1.2, "seed": 7},
        grid=grid,
        seeds_per_run=1,
        max_iters=150,
        grad_tol=1e-8,
        predicted=predicted,
        recorded={("sparse_embedding-l4d", 3): _expect(STATUS_MAX_ITERS, "inconclusive")},
    )


def _spiked_subsampled() -> Workload:
    grid = [
        {"label": "S10-alpha1.2", "method": "regularized_subsampled",
         "sample_size": 10, "alpha": 1.2},
        {"label": "S60-alpha1.2", "method": "regularized_subsampled",
         "sample_size": 60, "alpha": 1.2, "max_iters": 50},
        {"label": "S60-r20", "method": "newsamp", "sample_size": 60, "rank": 20,
         "max_iters": 16},
    ]
    predicted = {
        "S10-alpha1.2": _expect(STATUS_DIVERGED, "diverged"),
        "S60-alpha1.2": _expect(STATUS_MAX_ITERS, "linear"),
        "S60-r20": _expect(STATUS_MAX_ITERS, "linear"),
    }
    return Workload(
        name="spiked_subsampled",
        experiment="custom",
        problem={"kind": "spiked", "n": 800, "d": 500, "seed": 11},
        grid=grid,
        seeds_per_run=1,
        max_iters=2500,
        grad_tol=1e-6,
        predicted=predicted,
    )


def _svm_support() -> Workload:
    grid = [
        {"label": "subsampled-5pct-sv", "method": "subsampled",
         "sample_fraction": 0.05},
        {"label": "subsampled-1pct-sv", "method": "subsampled",
         "sample_fraction": 0.01},
        {"label": "newton", "method": "exact"},
        {"label": "newton-cg", "method": "newton_cg", "eps1": 0.1},
    ]
    predicted = {
        "subsampled-5pct-sv": _expect(STATUS_CONVERGED),
        "subsampled-1pct-sv": _expect(STATUS_CONVERGED, "linear"),
        "newton": _expect(STATUS_CONVERGED, "superlinear", "quadratic"),
        "newton-cg": _expect(STATUS_CONVERGED, "superlinear", "quadratic"),
    }
    return Workload(
        name="svm_support",
        experiment="custom",
        problem={"kind": "two_class", "n": 25000, "d": 200, "seed": 20,
                 "separation": 3.0, "C": 50.0},
        grid=grid,
        seeds_per_run=3,
        max_iters=200,
        grad_tol=1e-10,
        predicted=predicted,
    )


WORKLOADS = {w.name: w for w in (_sketch_ls(), _spiked_subsampled(), _svm_support())}
NAMES = tuple(WORKLOADS)
