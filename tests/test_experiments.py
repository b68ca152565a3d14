import json
import os
from dataclasses import fields
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from approxnewton import (
    DomainError,
    experiments,
    metrics,
    sketch,
    solvers,
    synthetic_spectrum_matrix,
)
from approxnewton.cli import main
from approxnewton.experiments import (
    BLAS_THREAD_VARS,
    CELL_KEYS,
    EMBEDDING_CHECK,
    EXPERIMENTS,
    NEWSAMP_SWEEP,
    PRESETS,
    REGULARIZED_SWEEP,
    RUN_KEYS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    _solver_config,
    build_objective,
    default_config,
    emit_plot_data,
    load_config,
    render_svg,
    run_experiment,
)
from approxnewton.hessian_approx import METHODS
from conftest import NanAfterFirstGradient

# the built-in experiments that have a full-scale definition
SWEEPS = (REGULARIZED_SWEEP, NEWSAMP_SWEEP)


def tiny_config(out_dir, seeds=(0, 1)):
    return ExperimentConfig(
        experiment="custom",
        problem={"kind": "synthetic", "n": 60, "d": 4, "decay": 1.2, "seed": 2},
        grid=[
            {"label": "newton", "method": "exact"},
            {"label": "reg20", "method": "regularized_subsampled",
             "sample_size": 20, "alpha": 0.05},
        ],
        seeds=list(seeds),
        output_dir=str(out_dir),
        max_iters=60,
        grad_tol=1e-9,
        workers=1,
    )


def read(path):
    with open(path) as fh:
        return fh.read()


# a valid value for every cell key
CELL_VALUES = {
    "label": st.text(min_size=1, max_size=8),
    "method": st.sampled_from([*METHODS, *PRESETS]),
    "warm_start_steps": st.integers(0, 3),
    "sketch_kind": st.sampled_from(sketch.ALL_KINDS),
    "sketch_size": st.integers(1, 500),
    "sample_size": st.integers(1, 500),
    "sample_fraction": st.floats(0.01, 1.0),
    "alpha": st.floats(0.0, 3.0),
    "rank": st.integers(1, 50),
    "eps0": st.floats(0.01, 0.9),
    "eps0_schedule": st.sampled_from([solvers.SCHEDULE_CONSTANT,
                                      solvers.SCHEDULE_LOG_DECAY]),
    "inner": st.sampled_from([solvers.INNER_EXACT, solvers.INNER_CG]),
    "eps1": st.floats(0.0, 0.99),
    "max_iters": st.integers(1, 1000),
    "grad_tol": st.floats(1e-14, 1e-2),
}


@st.composite
def cells(draw):
    """A valid cell: of the surrogate settings it sets only those in its
    method's row of `METHOD_SETTINGS`, with the ones that method needs."""
    keys = draw(st.sets(st.sampled_from(sorted(CELL_VALUES))))
    cell = {key: draw(CELL_VALUES[key]) for key in sorted(keys)}
    method = cell.get("method", "exact")
    fixed = PRESETS.get(method, {"hessian_method": method})
    reads = solvers.METHOD_SETTINGS[fixed["hessian_method"]]
    for key in sorted(solvers.SURROGATE_SETTINGS - set(reads) | fixed.keys()):
        cell.pop(key, None)  # not read by the method, or fixed by its preset
    if "sample_size" in reads:  # exactly one of the two sample settings
        keep, drop = draw(st.permutations(["sample_size", "sample_fraction"]))
        cell.pop(drop, None)
        cell.setdefault(keep, draw(CELL_VALUES[keep]))
    for key in ("sketch_kind", "rank"):
        if key in reads:
            cell.setdefault(key, draw(CELL_VALUES[key]))
    if {**cell, **fixed}.get("inner", "exact") == "exact" and "eps1" in cell:
        cell["eps1"] = 0.0  # read only by the cg inner solve
    return cell


def test_cell_values_cover_cell_keys():
    assert set(CELL_VALUES) == CELL_KEYS
    assert len(CELL_KEYS) == 15


@settings(max_examples=200, deadline=None)
@given(cells(), st.integers(0, 2**31 - 1))
def test_solver_config_takes_cell_then_experiment_then_defaults(cell, seed):
    cfg = tiny_config("unused")
    cfg.max_iters, cfg.grad_tol = 37, 3e-5  # not the SolverConfig defaults
    got = _solver_config(cell, cfg, seed)
    default = solvers.SolverConfig()
    expected = {f.name: getattr(default, f.name) for f in fields(default)}
    expected.update(max_iters=37, grad_tol=3e-5, seed=seed)
    expected.update({k: v for k, v in cell.items() if k not in RUN_KEYS})
    method = cell.get("method")
    if method is not None:
        expected.update(PRESETS.get(method, {"hessian_method": method}))
    assert {f.name: getattr(got, f.name) for f in fields(got)} == expected


class TestRunExperiment:
    def test_summary_has_grid_times_seeds_rows(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert run_experiment(cfg) == 0
        lines = read(tmp_path / "summary.csv").strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) - 1 == len(cfg.grid) * len(cfg.seeds)

    def test_trace_files_written_with_schema(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        body = read(tmp_path / "trace_newton_s0.csv").splitlines()
        assert body[0] == "t,grad_norm,grad_mstar_norm,inner_residual,status"
        assert body[-1].endswith("converged")

    def test_timings_separated_from_deterministic_csvs(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        assert (tmp_path / "timing_newton_s0.csv").exists()
        assert (tmp_path / "metadata.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(out_a))
        run_experiment(tiny_config(out_b))
        for name in sorted(os.listdir(out_a)):
            if name.startswith("timing_") or name == "metadata.txt":
                continue
            assert read(out_a / name) == read(out_b / name), name

    def test_alpha_on_subsampled_cell_regularizes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid = [
            {"label": method, "method": method, "sample_size": 3, "alpha": 0.05}
            for method in ("subsampled", "regularized_subsampled")
        ]
        assert run_experiment(cfg) == 0
        for seed in cfg.seeds:
            sub = read(tmp_path / f"trace_subsampled_s{seed}.csv")
            reg = read(tmp_path / f"trace_regularized_subsampled_s{seed}.csv")
            assert sub == reg

    def test_alpha_zero_reduces_to_plain_subsampled(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid = [
            {"label": "sub", "method": "subsampled", "sample_size": 8},
            {"label": "reg", "method": "regularized_subsampled", "sample_size": 8,
             "alpha": 0.0},
        ]
        assert run_experiment(cfg) == 0
        for seed in cfg.seeds:
            sub = read(tmp_path / f"trace_sub_s{seed}.csv")
            assert sub == read(tmp_path / f"trace_reg_s{seed}.csv")

    def test_partial_failure_recorded_and_exit_2(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid.append({"label": "bad", "method": "newsamp",
                         "sample_size": 5, "rank": 99})
        assert run_experiment(cfg) == 2
        summary = read(tmp_path / "summary.csv")
        assert "error:DomainError" in summary
        lines = summary.strip().splitlines()
        assert len(lines) - 1 == len(cfg.grid) * len(cfg.seeds)

    def test_embedding_check(self, tmp_path):
        cfg = ExperimentConfig(
            experiment=EMBEDDING_CHECK,
            problem={"kind": "embedding", "d": 6, "m": 120, "eps": 0.5, "seed": 1},
            grid=[{"sketch_kind": "gaussian"}],
            seeds=list(range(40)),
            output_dir=str(tmp_path),
        )
        assert run_experiment(cfg) == 0
        rates = read(tmp_path / "embedding_rates.csv").strip().splitlines()
        kind, size, rate = rates[1].split(",")
        assert kind == "gaussian"
        assert float(rate) >= 0.9

    def test_workers_do_not_change_results(self, tmp_path):
        serial = tiny_config(tmp_path / "serial")
        parallel = tiny_config(tmp_path / "parallel")
        parallel.workers = 4
        run_experiment(serial)
        run_experiment(parallel)
        assert read(tmp_path / "serial/summary.csv") == read(
            tmp_path / "parallel/summary.csv"
        )

    @pytest.mark.parametrize(
        "env, workers, expected",
        [
            ({}, None, 1),  # OpenBLAS takes every core
            ({"OPENBLAS_NUM_THREADS": "1"}, None, 8),
            ({"OPENBLAS_NUM_THREADS": "4"}, None, 2),
            ({"OMP_NUM_THREADS": "2"}, None, 4),
            ({"OPENBLAS_NUM_THREADS": "junk"}, None, 1),
            ({}, 3, 3),  # an explicit count wins
        ],
    )
    def test_default_pool_takes_the_cores_blas_leaves_free(
        self, tmp_path, monkeypatch, env, workers, expected
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        # a seeded cell, so that each of the 8 seeds is a run of its own
        cfg = tiny_config(tmp_path, seeds=range(8))
        cfg.grid = [{"label": "reg20", "method": "regularized_subsampled",
                     "sample_size": 20, "alpha": 0.05}]
        cfg.workers = workers
        assert run_experiment(cfg) == 0
        assert f"workers: {expected}" in read(tmp_path / "metadata.txt").splitlines()

    @pytest.mark.parametrize(
        "problem, grid",
        [
            ({"kind": "two_class", "n": 300, "d": 6, "seed": 4,
              "separation": 3.0, "C": 20.0},
             [{"label": "newton", "method": "exact"},
              {"label": "newton-cg", "method": "newton_cg", "eps1": 0.1},
              {"label": "sub", "method": "subsampled", "sample_fraction": 0.2},
              {"label": "lev", "method": "sketched",
               "sketch_kind": "leverage_score", "sketch_size": 120}]),
            ({"kind": "synthetic", "n": 400, "d": 6, "decay": 1.3, "seed": 5},
             [{"label": "gauss", "method": "sketched", "sketch_kind": "gaussian",
               "sketch_size": 60},
              {"label": "lev", "method": "sketched",
               "sketch_kind": "leverage_score", "sketch_size": 60},
              {"label": "sparse", "method": "sketched",
               "sketch_kind": "sparse_embedding", "sketch_size": 150},
              {"label": "newton", "method": "exact"}]),
        ],
        ids=["svm", "least_squares"],
    )
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, problem, grid):
        # the runs of one experiment share the objective's curvature memo
        outputs = []
        for workers in (1, 2, 4):
            cfg = tiny_config(tmp_path / f"w{workers}")
            cfg.problem, cfg.grid, cfg.workers, cfg.max_iters = problem, grid, workers, 40
            assert run_experiment(cfg) == 0
            names = sorted(n for n in os.listdir(cfg.output_dir)
                           if n == "summary.csv" or n.startswith("trace_"))
            outputs.append({n: read(os.path.join(cfg.output_dir, n)) for n in names})
        assert len(outputs[0]) == 1 + 2 * len(grid)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_free_cells_run_once_and_write_every_seed(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "grid", seeds=(0, 1, 2))
        cfg.problem = {"kind": "two_class", "n": 300, "d": 6, "seed": 4,
                       "separation": 3.0, "C": 20.0}
        cfg.grid = [{"label": "newton", "method": "exact"},
                    {"label": "newton-cg", "method": "newton_cg", "eps1": 0.1},
                    {"label": "sub", "method": "subsampled", "sample_fraction": 0.2}]
        cfg.max_iters, cfg.workers = 40, None
        # one BLAS thread on 8 cores: the pool is sized by the 5 distinct runs
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        runs = []
        run = solvers.approximate_newton_run
        monkeypatch.setattr(
            solvers, "approximate_newton_run",
            lambda obj, scfg, x0: runs.append(scfg) or run(obj, scfg, x0))
        assert run_experiment(cfg) == 0
        # the reference runs through metrics' own name and is not counted
        assert sorted((c.hessian_method, c.inner, c.seed) for c in runs) == [
            ("exact", "cg", 0), ("exact", "exact", 0),
            ("subsampled", "exact", 0), ("subsampled", "exact", 1),
            ("subsampled", "exact", 2)]
        # the tables equal those of every cell run at every seed
        obj = build_objective(cfg.problem)
        ref = metrics.compute_mstar_reference(obj, np.zeros(obj.d))
        outcomes = [experiments.run_cell(obj, ref, cell, cfg, seed)
                    for cell in cfg.grid for seed in cfg.seeds]
        expected = tmp_path / "per_seed"
        expected.mkdir()
        for name, (columns, rows) in experiments._grid_tables(cfg, outcomes).items():
            if not name.startswith("timing_"):
                experiments._write_csv(str(expected / name), columns, rows)
        written = sorted(n for n in os.listdir(cfg.output_dir) if n.endswith(".csv")
                         and not n.startswith("timing_"))
        assert written == sorted(os.listdir(expected))
        for name in written:
            assert read(tmp_path / "grid" / name) == read(expected / name), name
        metadata = read(tmp_path / "grid" / "metadata.txt").splitlines()
        assert "workers: 5" in metadata
        for label in ("newton", "newton-cg"):
            for seed in (1, 2):
                assert f"run {label}_s{seed}: same run as {label}_s0" in metadata
        assert sum(line.startswith("run sub_s") and "total_wall_ms=" in line
                   for line in metadata) == 3

    def test_finished_run_holds_no_gradients(self, tmp_path):
        # r_t is filled from the gradients, and the tables read only r_t
        cfg = tiny_config(tmp_path)
        obj = build_objective(cfg.problem)
        ref = metrics.compute_mstar_reference(obj, np.zeros(obj.d))
        for cell in cfg.grid:
            trace = experiments.run_cell(obj, ref, cell, cfg, 0).trace
            assert trace.n_steps > 0
            assert trace.gradients == []
            assert len(trace.grad_mstar_norms) == trace.n_steps + 1

    def test_metadata_records_memo_reuse(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid = [{"label": "lev", "method": "sketched",
                     "sketch_kind": "leverage_score", "sketch_size": 20}]
        assert run_experiment(cfg) == 0
        memo = [line for line in read(tmp_path / "metadata.txt").splitlines()
                if line.startswith("memo leverage_scores: ")]
        assert len(memo) == 1
        kind, counts = memo[0].split(": ")
        hits, misses, held = (int(part.split("=")[1]) for part in counts.split())
        # both seeds' runs share one decomposition of the constant factor
        assert kind == "memo leverage_scores" and misses == 1 and hits >= 1
        assert held == 60 * 8

    def test_linalg_error_in_one_cell_recorded_other_cell_finishes(
        self, tmp_path, monkeypatch
    ):
        # a leverage step inverts the Hessian's Cholesky factor, which only
        # that cell's steps do: numpy finds it singular there
        inverse = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda U: inverse(np.zeros_like(U)))
        cfg = tiny_config(tmp_path, seeds=(0,))
        cfg.grid = [
            {"label": "lev", "method": "sketched",
             "sketch_kind": "leverage_score", "sketch_size": 20},
            {"label": "newton", "method": "exact"},
        ]
        assert run_experiment(cfg) == 2
        rows = read(tmp_path / "summary.csv").strip().splitlines()[1:]
        status = {row.split(",")[0]: row.split(",")[2] for row in rows}
        assert status == {"lev_s0": "error:LinAlgError", "newton_s0": "converged"}
        assert (tmp_path / "trace_newton_s0.csv").exists()
        metadata = read(tmp_path / "metadata.txt").splitlines()
        errors = [line for line in metadata if line.startswith("error ")]
        assert errors == ["error lev_s0: LinAlgError: Singular matrix"]

    def test_non_finite_run_ends_its_trace_with_a_diverged_row(
        self, tmp_path, monkeypatch
    ):
        cfg = tiny_config(tmp_path, seeds=(0,))
        cfg.grid = [{"label": "newton", "method": "exact"}]
        ds = synthetic_spectrum_matrix(60, 4, 1.2, seed=2)
        ref = metrics.compute_mstar_reference(build_objective(cfg.problem), np.zeros(4))
        obj = NanAfterFirstGradient(ds)
        monkeypatch.setattr(experiments, "build_objective", lambda problem: obj)
        monkeypatch.setattr(metrics, "compute_mstar_reference", lambda o, x0: ref)
        assert run_experiment(cfg) == 0
        trace = read(tmp_path / "trace_newton_s0.csv").splitlines()
        assert len(trace) == 3
        assert trace[-1] == "1,,,,diverged"
        (row,) = read(tmp_path / "summary.csv").splitlines()[1:]
        assert row.startswith("newton_s0,0,diverged,1,,diverged,")

    def test_metadata_echoes_resolved_config(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid[0]["warm_start_steps"] = 2
        run_experiment(cfg)
        lines = read(tmp_path / "metadata.txt").splitlines()
        (line,) = [line for line in lines if line.startswith("config: ")]
        assert ExperimentConfig(**json.loads(line[len("config: "):])) == cfg

    def test_metadata_times_objective_build_and_reference(self, tmp_path):
        assert run_experiment(tiny_config(tmp_path)) == 0
        metadata = read(tmp_path / "metadata.txt").splitlines()
        for name in ("build_objective_ms", "reference_ms"):
            (line,) = [line for line in metadata if line.startswith(f"{name}: ")]
            assert float(line.split(": ")[1]) >= 0.0

    def test_metadata_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        run_experiment(tiny_config(tmp_path))
        metadata = read(tmp_path / "metadata.txt").splitlines()
        for prefix in ("python: ", f"numpy: {np.__version__}", "scipy: ",
                       "OPENBLAS_NUM_THREADS: 1", "workers: 1"):
            assert any(line.startswith(prefix) for line in metadata), prefix
        assert not any(line.startswith("OMP_NUM_THREADS") for line in metadata)
        assert not any(line.startswith("error ") for line in metadata)

    @pytest.mark.parametrize(
        "cell",
        [
            {"label": "reg", "method": "regularized_subsampled",
             "sample_szie": 20, "alpha": 0.05},
            {"label": "newton", "methdo": "exact"},
        ],
    )
    def test_misspelled_cell_key_rejected(self, tmp_path, cell):
        cfg = tiny_config(tmp_path)
        cfg.grid = [cell]
        with pytest.raises(DomainError, match="unknown cell keys"):
            run_experiment(cfg)
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize(
        "experiment", [e for e in EXPERIMENTS if e not in (EMBEDDING_CHECK, "custom")]
    )
    def test_builtin_grids_use_known_cell_keys(self, tmp_path, experiment):
        # only the two spiked sweeps have a full-scale definition
        for full_scale in (False, True)[: 1 + (experiment in SWEEPS)]:
            cfg = default_config(experiment, str(tmp_path), full_scale=full_scale)
            for cell in cfg.grid:
                assert set(cell) <= CELL_KEYS, cell

    def test_newsamp_grid_ranks_below_sample_sizes(self, tmp_path):
        for full_scale, cells in ((False, 3), (True, 4)):
            cfg = default_config(NEWSAMP_SWEEP, str(tmp_path), full_scale=full_scale)
            assert len(cfg.grid) == cells
            for cell in cfg.grid:
                assert cell["rank"] < cell["sample_size"], cell

    def test_presets_match_exact_hessian_cells(self, tmp_path):
        # full_newton is the exact Hessian with an exact inner solve and
        # newton_cg the exact Hessian with CG, cold and after a warm start
        pairs = [
            ({"method": "full_newton"}, {"method": "exact"}),
            ({"method": "newton_cg", "eps1": 0.1},
             {"method": "exact", "inner": "cg", "eps1": 0.1}),
        ]
        for i, pair in enumerate(pairs):
            outs = [tmp_path / f"pair{i}-preset", tmp_path / f"pair{i}-exact"]
            for out, cell in zip(outs, pair):
                cfg = tiny_config(out, seeds=(0,))
                cfg.problem = {"kind": "two_class", "n": 300, "d": 8, "seed": 1,
                               "separation": 3.0, "C": 50.0}
                cfg.grid = [dict(cell, label="cold"),
                            dict(cell, label="warm", warm_start_steps=2)]
                assert run_experiment(cfg) == 0
            names = sorted(n for n in os.listdir(outs[0]) if n.startswith("trace_"))
            assert names == ["trace_cold_s0.csv", "trace_warm_s0.csv"]
            for name in names:
                assert read(outs[0] / name) == read(outs[1] / name), name
            cold, warm = (read(outs[0] / name) for name in names)
            assert len(warm.splitlines()) < len(cold.splitlines())

    @pytest.mark.parametrize(
        "grid, seeds, match",
        [
            ([{"method": "exact"}, {"method": "exact", "inner": "cg", "eps1": 0.5}],
             [0], "share a label"),
            ([{"label": "a", "method": "exact"}], [0, 0], "repeated seeds"),
        ],
    )
    def test_runs_sharing_output_files_rejected(self, tmp_path, grid, seeds, match):
        cfg = tiny_config(tmp_path, seeds=seeds)
        cfg.grid = grid
        with pytest.raises(DomainError, match=match):
            run_experiment(cfg)
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize(
        "cell, match",
        [
            ({"label": "a/b", "method": "exact"}, "not a plain file name"),
            ({"label": "x" * 250, "method": "exact"}, "too long"),
            ({"label": "a", "method": ["exact"]}, "method must be a string"),
            ({"method": {"exact": 1}}, "method must be a string"),
        ],
    )
    def test_bad_label_or_method_rejected(self, tmp_path, cell, match):
        cfg = tiny_config(tmp_path)
        cfg.grid = [cell]
        with pytest.raises(DomainError, match=match):
            run_experiment(cfg)
        assert not (tmp_path / "summary.csv").exists()

    def test_preset_with_inner_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.grid = [{"label": "cg", "method": "newton_cg", "inner": "exact"}]
        with pytest.raises(DomainError, match=r"newton_cg fixes \['inner'\]"):
            run_experiment(cfg)
        assert not (tmp_path / "summary.csv").exists()


class TestPlotData:
    def test_emit_names_the_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="metadata.txt"):
            emit_plot_data(str(tmp_path))
        run_experiment(tiny_config(tmp_path, seeds=(0,)))
        os.remove(tmp_path / "plotdata_custom.csv")
        with pytest.raises(DomainError, match="plotdata_custom.csv"):
            emit_plot_data(str(tmp_path))

    def test_single_series_svg(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        cfg.grid = cfg.grid[:1]
        run_experiment(cfg)
        written = emit_plot_data(str(tmp_path))
        svg = read(tmp_path / "plot_replot.svg")
        assert svg.count("<polyline") == 1
        assert "log scale" in svg
        assert written == [str(tmp_path / "plot_replot.svg")]

    def test_svg_escapes_series_labels(self, tmp_path):
        cfg = tiny_config(tmp_path, seeds=(0,))
        cfg.grid = [{"label": "a<b&c", "method": "exact"}]
        run_experiment(cfg)
        emit_plot_data(str(tmp_path))
        root = ElementTree.parse(tmp_path / "plot_replot.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b&c_s0" in texts

    def test_svg_skips_an_infinite_residual(self, tmp_path):
        # a run that diverges on an infinite gradient ends its curve with inf
        path = tmp_path / "plot.svg"
        render_svg({"a": [(0, 1.0), (1, 0.1), (2, float("inf"))]}, str(path))
        (line,) = ElementTree.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}polyline")
        assert len(line.get("points").split()) == 2
        assert "nan" not in read(path) and "inf" not in read(path)

    def test_plotdata_long_format(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        lines = read(tmp_path / "plotdata_custom.csv").splitlines()
        assert lines[0] == "series_label,t,residual_mstar"
        assert len(lines) > 4

    def test_lipschitz_free_curves_newton_dominates(self, tmp_path):
        cfg = default_config("lipschitz_free", str(tmp_path))
        assert run_experiment(cfg) == 0
        series = {}
        with open(tmp_path / "plotdata_lipschitz_free.csv") as fh:
            fh.readline()
            for line in fh:
                tag, t, val = line.split(",")
                series.setdefault(tag.rsplit("_s", 1)[0], {})[int(t)] = float(val)
        assert set(series) == {"newton", "subsampled-5pct-sv"}
        common = set(series["newton"]) & set(series["subsampled-5pct-sv"])
        assert len(common) >= 5
        # exact Newton's residual curve sits below the subsampled one
        for t in sorted(common)[1:]:
            assert series["newton"][t] <= series["subsampled-5pct-sv"][t]


class TestConfigFile:
    def test_yaml_roundtrip_with_overrides(self, tmp_path):
        path = tmp_path / "exp.yaml"
        data = {
            "experiment": "custom",
            "problem": {"kind": "synthetic", "n": 40, "d": 4, "decay": 1.5,
                        "seed": 3},
            "grid": [{"label": "newton", "method": "exact"}],
            "seeds": [0, 1, 2],
            "output_dir": str(tmp_path / "out"),
            "grad_tol": 1e-8,
        }
        path.write_text(yaml.safe_dump(data))
        cfg = load_config(str(path), overrides={"seeds": [7]})
        assert cfg.seeds == [7]
        assert cfg.grad_tol == 1e-8

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": "custom", "grids": []}))
        with pytest.raises(DomainError, match="unknown config keys"):
            load_config(str(path))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                experiment="custom", problem={}, grid=[], seeds=[0],
                output_dir="x",
            )

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"workers": "2"}, "workers must be an integer"),
            ({"workers": 0}, "workers must be a positive integer"),
            ({"workers": True}, "workers must be an integer"),
            ({"max_iters": 2.5}, "max_iters must be an integer"),
            ({"grad_tol": "1e-8"}, "grad_tol must be a number"),
        ],
    )
    def test_wrong_type_of_run_setting_rejected(self, setting, match):
        with pytest.raises(DomainError, match=match):
            ExperimentConfig(
                experiment="custom", problem={}, grid=[{"method": "exact"}],
                seeds=[0], output_dir="x", **setting,
            )

    def test_default_configs_construct(self, tmp_path):
        for name in ("lipschitz_free", "sketch_sweep", "regularized_sweep",
                     "newsamp_sweep", "embedding_check"):
            cfg = default_config(name, str(tmp_path))
            assert cfg.grid and cfg.seeds

    def test_build_objective_kinds(self):
        obj = build_objective(
            {"kind": "two_class", "n": 40, "d": 3, "seed": 1, "C": 2.0}
        )
        assert obj.n == 40
        obj2 = build_objective(
            {"kind": "spiked", "n": 50, "d": 10, "seed": 1}
        )
        assert obj2.d == 10
        with pytest.raises(DomainError):
            build_objective({"kind": "mystery"})


class TestCli:
    def test_gen_synthetic_reports_kappa(self, capsys):
        code = main(["gen-synthetic", "--n", "50", "--d", "5", "--decay", "1.5",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        kappa = float([l for l in out.splitlines() if l.startswith("kappa")][0]
                      .split(":")[1])
        assert kappa == pytest.approx(1.5**4, rel=1e-8)

    def test_gen_synthetic_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "data.npz"
        assert main(["gen-synthetic", "--n", "30", "--d", "3", "--out",
                     str(out)]) == 0
        with np.load(out) as data:
            assert data["rows"].shape == (30, 3)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gen_synthetic_rejects_a_seed_out_of_range(self, seed, capsys):
        assert main(["gen-synthetic", "--n", "30", "--d", "3", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"

    def test_gen_synthetic_reports_an_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "data.npz"
        assert main(["gen-synthetic", "--n", "30", "--d", "3", "--out",
                     str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_run_with_config_file(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "custom",
            "problem": {"kind": "synthetic", "n": 40, "d": 4, "decay": 1.5,
                        "seed": 3},
            "grid": [{"label": "newton", "method": "exact"}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_echo_writes_a_yaml_date_label_as_a_string(self, tmp_path,
                                                               capsys):
        # YAML reads an unquoted 2020-01-01 as a date, which JSON cannot hold
        path = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        path.write_text(
            "experiment: custom\n"
            "problem: {kind: synthetic, n: 40, d: 4, decay: 1.5}\n"
            f"grid: [{{label: 2020-01-01, method: exact}}]\nseeds: [0]\n"
            f"output_dir: {out}\n"
        )
        assert main(["run", str(path)]) == 0
        assert (out / "trace_2020-01-01_s0.csv").exists()
        assert '"label": "2020-01-01"' in read(out / "metadata.txt")

    def test_run_without_config_is_config_error(self, capsys):
        assert main(["run"]) == 1

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("experiment: nope\n")
        assert main(["run", str(path)]) == 1

    def test_embedding_config_with_unknown_kind_is_config_error(self, tmp_path,
                                                                capsys):
        path = tmp_path / "emb.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "embedding_check",
            "problem": {"kind": "embedding", "d": 4, "m": 80},
            "grid": [{"sketch_kind": "gausian"}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "problem, cell",
        [
            ({"kind": "embedding", "d": 4, "m": 80}, {"kind": "gaussian"}),
            ({"kind": "embedding", "dd": 6, "m": 80}, {"sketch_kind": "gaussian"}),
        ],
    )
    def test_embedding_config_with_unknown_keys_is_config_error(
        self, tmp_path, capsys, problem, cell
    ):
        path = tmp_path / "emb.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "embedding_check",
            "problem": problem,
            "grid": [cell],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "embedding_rates.csv").exists()

    def test_misspelled_cell_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "custom",
            "problem": {"kind": "synthetic", "n": 40, "d": 4, "decay": 1.5,
                        "seed": 3},
            "grid": [{"label": "reg", "method": "regularized_subsampled",
                      "sample_szie": 20, "alpha": 0.05}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "sample_szie" in err
        assert err.count("\n") == 1

    def test_preset_with_inner_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({
            "experiment": "custom",
            "problem": {"kind": "synthetic", "n": 40, "d": 4, "decay": 1.5,
                        "seed": 3},
            "grid": [{"method": "newton_cg", "inner": "exact"}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize(
        "raw, args, message",
        [
            # YAML 1.1 reads 1e-1 and 1e2 (no dot) as strings
            ({"grid": "[{label: a, method: exact, inner: cg, eps1: 1e-1}]"}, [],
             "eps1 must be a number, got '1e-1'"),
            ({"grid": "[{label: a, method: subsampled, sample_size: 1e2}]"}, [],
             "sample_size must be an integer, got '1e2'"),
            ({"grid": "[{method: exact}, {method: exact, inner: cg, eps1: 0.5}]"},
             [], "share a label"),
            ({"seeds": "[0, 0]"}, [], "repeated seeds"),
            # non-finite numbers, which would otherwise reach the runs
            ({"grid": "[{label: a, method: regularized_subsampled, sample_size: 5, "
                      "alpha: .inf}]"}, [], "alpha must be finite, got inf"),
            ({"grid": "[{label: a, method: exact, grad_tol: .nan}]"}, [],
             "grad_tol must be finite, got nan"),
            ({"grid": "[{label: a, method: regularized_subsampled, sample_size: 5, "
                      f"alpha: {10**400}}}]"}, [], "alpha must be finite, got 1000"),
            ({"grad_tol": ".nan"}, [], "grad_tol must be finite, got nan"),
            ({"problem": "{kind: synthetic, n: 40, d: 4, decay: -.inf, seed: 3}"}, [],
             "decay must be finite, got -inf"),
            ({}, ["--full-scale"], "--full-scale"),
            ({}, ["--experiment", "sketch_sweep"], "--experiment takes no config file"),
            ({"full_scale": "true"}, [], "full_scale"),
            ({"grid": "[{label: a, gradient_mode: subsampled, "
                      "gradient_sample_size: 20}]"}, [], "gradient_mode"),
            ({"grid": "[{label: a, seed: 3}]"}, [], "unknown cell keys: ['seed']"),
            ({"grid": "[{label: a, divergence_guard: 100.0}]"}, [],
             "unknown cell keys: ['divergence_guard']"),
            ({"grid": "[{label: a/b, method: exact}]"}, [], "not a plain file name"),
            ({"grid": f"[{{label: {'x' * 250}, method: exact}}]"}, [], "too long"),
            ({"workers": "'2'"}, [], "workers must be an integer, got '2'"),
            ({"grid": "[{method: [exact]}]"}, [], "method must be a string"),
            ({"seeds": "[-1]"}, [], "seed must be in [0, 2**64), got -1"),
            ({"seeds": f"[{2**64}]"}, [], f"seed must be in [0, 2**64), got {2**64}"),
            ({}, ["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
            ({"problem": "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: -2}"}, [],
             "seed must be in [0, 2**64), got -2"),
            ({"problem": "{kind: embedding, d: 4, m: 80}"}, [],
             "unknown problem kind 'embedding'"),
            ({"experiment": "embedding_check", "grid": "[{sketch_kind: gaussian}]"},
             [], "unknown problem kind 'synthetic'"),
            ({"experiment": "embedding_check", "grid": "[{sketch_kind: gaussian}]",
              "problem": "{kind: embedding, d: four, m: 80}"}, [],
             "d must be an integer, got 'four'"),
            ({"experiment": "embedding_check", "grid": "[{sketch_kind: gaussian}]",
              "problem": "{kind: embedding, d: 4, m: 80, eps: 2}"}, [], "eps=2"),
            ({"experiment": "embedding_check", "grid": "[{sketch_kind: gaussian}]",
              "problem": "{kind: embedding, d: 6, m: 3}"}, [], "d=6, m=3"),
            ({"experiment": "embedding_check", "grid": "[{sketch_kind: gaussian}]",
              "problem": "{kind: embedding, d: 4, m: 80, seed: -2}"}, [],
             "seed must be in [0, 2**64), got -2"),
            # YAML reads an unquoted 1 as an int key, which sorts with no string
            ({"problem": "{kind: synthetic, n: 40, d: 4, decay: 1.5, 1: x, a: y}"},
             [], "unknown synthetic problem keys: [1, 'a']"),
            ({"grid": "[{method: exact, 1: x, a: y}]"}, [],
             "unknown cell keys: [1, 'a']"),
            ({"experiment": "embedding_check",
              "problem": "{kind: embedding, d: 4, m: 80}",
              "grid": "[{sketch_kind: gaussian, 1: x, a: y}]"}, [],
             "unknown embedding cell keys: [1, 'a']"),
            ({1: "x", "a": "y"}, [], "unknown config keys: [1, 'a']"),
            ({"problem": "{kind: synthetic, n: 40, d: 4"}, [], "is not valid YAML"),
        ],
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, raw, args, message):
        entries = {
            "experiment": "custom",
            "problem": "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: 3}",
            "grid": "[{label: a, method: exact}]",
            "seeds": "[0]",
            "output_dir": str(tmp_path / "out"),
            **raw,
        }
        path = tmp_path / "exp.yaml"
        path.write_text("".join(f"{key}: {val}\n" for key, val in entries.items()))
        assert main(["run", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, cell, message",
        [
            ("custom", "{method: subsampeld, sample_size: 5}",
             "unknown hessian_method 'subsampeld'"),
            ("custom", "{method: exact, inner: cgg}", "unknown inner 'cgg'"),
            ("custom", "{method: sketched, sketch_kind: gausian}",
             "unknown sketch_kind 'gausian'"),
            ("custom", "{method: regularized_subsampled, sample_size: 5, alpha: -1}",
             "alpha must be >= 0, got -1"),
            ("custom", "{method: subsampled, sample_size: 0}",
             "sample_size must be >= 1, got 0"),
            ("custom", "{method: sketched, sketch_kind: gaussian, "
                       "eps0_schedule: log-decay}",
             "unknown eps0_schedule 'log-decay'"),
            ("custom", "{label: a/b, method: exact}", "not a plain file name"),
            ("custom", '{label: "a,b", method: exact}', "does not fit in a CSV field"),
            ("custom", '{label: "a\\nb", method: exact}', "does not fit in a CSV field"),
            ("custom", "{method: exact, warm_start_steps: -1}",
             "warm_start_steps must be >= 0, got -1"),
            ("custom", "{method: exact, warm_start_steps: '3'}",
             "warm_start_steps must be an integer, got '3'"),
            ("custom", "{method: exact, warm_start_steps: 2.5}",
             "warm_start_steps must be an integer, got 2.5"),
            ("custom", "{method: exact, warm_start_steps: true}",
             "warm_start_steps must be an integer, got True"),
            ("embedding_check", "{sketch_kind: gausian}",
             "unknown sketch_kind 'gausian'"),
            ("embedding_check", "{sketch_kind: gaussian, sketch_size: 0}",
             "sketch_size must be >= 1, got 0"),
            ("embedding_check", "{sketch_kind: gaussian, sketch_size: abc}",
             "sketch_size must be an integer, got 'abc'"),
            ("embedding_check", "{sketch_kind: gaussian, sketch_size: 2.5}",
             "sketch_size must be an integer, got 2.5"),
        ],
    )
    def test_bad_cell_is_config_error_and_creates_nothing(
        self, tmp_path, capsys, experiment, cell, message
    ):
        if experiment == "embedding_check":
            problem = "{kind: embedding, d: 4, m: 80}"
        else:
            problem = "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: 3}"
        path = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        path.write_text(
            f"experiment: {experiment}\nproblem: {problem}\n"
            f"grid: [{cell}]\nseeds: [0]\noutput_dir: {out}\n"
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem, cell, message",
        [
            (None, "{method: sketched, sketch_size: 20}", "sketched needs sketch_kind"),
            (None, "{method: newsamp, sample_size: 20}", "newsamp needs rank"),
            (None, "{method: subsampled}",
             "subsampled needs one of sample_size, sample_fraction"),
            (None, "{method: subsampled, sample_size: 20, sample_fraction: 0.5}",
             "subsampled needs one of sample_size, sample_fraction"),
            (None, "{method: subsampled, sample_size: 20, sketch_size: 8}",
             "subsampled does not read sketch_size, got 8"),
            (None, "{method: exact, alpha: 0.1}", "exact does not read alpha, got 0.1"),
            (None, "{method: full_newton, eps1: 0.1}",
             "eps1 is read only by the cg inner solve, got 0.1"),
            ("{kind: synthetic, n: 60, d: 4, decay: 1.2, sed: 3}", None,
             "unknown synthetic problem keys: ['sed']"),
            ("{kind: synthetic, n: 60, decay: 1.2, seed: 3}", None,
             "synthetic problem needs keys: ['d']"),
            ("{kind: two_class, n: 60, d: 4, C: -1}", None,
             "C must be positive, got -1"),
        ],
        ids=["sketched-without-kind", "newsamp-without-rank", "sampled-neither",
             "sampled-both", "subsampled-sketch-size", "exact-alpha",
             "full-newton-eps1", "problem-misspelled-key", "problem-without-d",
             "problem-negative-C"],
    )
    def test_unread_or_missing_setting_is_config_error_and_creates_nothing(
        self, tmp_path, capsys, problem, cell, message
    ):
        problem = problem or "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: 3}"
        cell = cell or "{method: exact}"
        path = tmp_path / "exp.yaml"
        out = tmp_path / "out"
        path.write_text(
            f"experiment: custom\nproblem: {problem}\n"
            f"grid: [{cell}]\nseeds: [0]\noutput_dir: {out}\n"
        )
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"problem": "3"}, "problem must be a mapping, got 3"),
            ({"problem": "{kind: synthetic, n: 40, d: four, decay: 1.5}"},
             "d must be an integer, got 'four'"),
            ({"problem": "{kind: synthetic, n: 40.0, d: 4, decay: 1.5}"},
             "n must be an integer, got 40.0"),
            ({"problem": "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: true}"},
             "seed must be an integer, got True"),
            ({"problem": "{kind: spiked, n: 40, d: 4, heavy_scale: big}"},
             "heavy_scale must be a number, got 'big'"),
            ({"problem": "{kind: two_class, n: 40, d: 4, C: [1]}"},
             "C must be a number, got [1]"),
            ({"problem": "{kind: libsvm, path: 3}"}, "path must be a string, got 3"),
            ({"grid": "exact"}, "grid must be a list of cells, got 'exact'"),
            ({"grid": "[exact]"}, "grid cell 'exact' is not a mapping"),
            ({"seeds": "0"}, "seeds must be a list of integers, got 0"),
            ({"seeds": "[0, one]"}, "seed must be an integer, got 'one'"),
            ({"output_dir": "3"}, "output_dir must be a non-empty string, got 3"),
            ({"output_dir": "[a, b]"},
             "output_dir must be a non-empty string, got ['a', 'b']"),
            ({"output_dir": "''"}, "output_dir must be a non-empty string, got ''"),
        ],
    )
    def test_misshapen_config_is_config_error_and_creates_nothing(
        self, tmp_path, capsys, raw, message
    ):
        out = tmp_path / "out"
        entries = {
            "experiment": "custom",
            "problem": "{kind: synthetic, n: 40, d: 4, decay: 1.5, seed: 3}",
            "grid": "[{label: a, method: exact}]",
            "seeds": "[0]",
            "output_dir": str(out),
            **raw,
        }
        path = tmp_path / "exp.yaml"
        path.write_text("".join(f"{key}: {val}\n" for key, val in entries.items()))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config_file", "experiment"])
    def test_empty_out_is_config_error_before_the_objective(
        self, tmp_path, monkeypatch, capsys, source
    ):
        # an empty --out is a bad output_dir, not an unset one
        built = []
        monkeypatch.setattr(experiments, "build_objective", built.append)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("APPROXNEWTON_OUT", str(tmp_path / "default"))
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment: custom\n"
            "problem: {kind: synthetic, n: 40, d: 4, decay: 1.5}\n"
            "grid: [{method: exact}]\nseeds: [0]\n"
        )
        if source == "config_file":
            args = ["run", str(path), "--out", ""]
        else:
            args = ["run", "--experiment", "lipschitz_free", "--out", ""]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "config error: output_dir must be a non-empty string, got ''\n"
        assert built == []
        assert list(tmp_path.iterdir()) == [path]

    def test_builtin_experiment_with_zero_workers_is_config_error(self, tmp_path,
                                                                   capsys):
        args = ["run", "--experiment", "lipschitz_free", "--workers", "0",
                "--out", str(tmp_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "config error: workers must be a positive integer, got 0\n"
        assert not (tmp_path / "summary.csv").exists()

    def test_builtin_experiment_with_negative_seed_is_config_error(self, tmp_path,
                                                                    capsys):
        out = tmp_path / "out"
        args = ["run", "--experiment", "lipschitz_free", "--seed", "-1",
                "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "config error: seed must be in [0, 2**64), got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment", [e for e in EXPERIMENTS if e not in SWEEPS + ("custom",)]
    )
    def test_full_scale_without_definition_is_config_error(self, tmp_path, capsys,
                                                          experiment):
        out = tmp_path / "out"
        args = ["run", "--experiment", experiment, "--full-scale", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {experiment!r} has no full-scale definition\n"
        assert not out.exists()

    def test_plot_subcommand(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, seeds=(0,))
        run_experiment(cfg)
        assert main(["plot", str(tmp_path)]) == 0

    def test_plot_of_run_with_failed_cell(self, tmp_path, capsys):
        # the failed run has a summary row but no trace
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment: custom\n"
            "problem: {kind: synthetic, n: 40, d: 4, decay: 1.5}\n"
            "grid: [{method: exact}, "
            "{label: bad, method: newsamp, sample_size: 2, rank: 3}]\n"
            f"seeds: [0]\noutput_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 2
        assert main(["plot", str(tmp_path / "out")]) == 0
        assert read(tmp_path / "out" / "plot_replot.svg").count("<polyline") == 1

    def test_verify_embedding_subcommand(self, tmp_path, capsys):
        code = main(["verify-embedding", "--d", "6", "--m", "120", "--seeds",
                     "25", "--kinds", "gaussian", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gaussian" in out

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "1.5"], ["--d", "6", "--m", "3"], ["--seeds", "0"],
         ["--problem-seed", "-1"]],
    )
    def test_verify_embedding_bad_input_is_config_error(self, tmp_path, capsys,
                                                        flags):
        code = main(["verify-embedding", "--kinds", "gaussian", "--out",
                     str(tmp_path), "--seeds", "2", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_output_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("APPROXNEWTON_OUT", str(tmp_path / "envout"))
        code = main(["verify-embedding", "--d", "5", "--m", "100", "--seeds",
                     "10", "--kinds", "gaussian"])
        assert code == 0
        assert (tmp_path / "envout" / "embedding_rates.csv").exists()
