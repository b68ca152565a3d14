"""Tests of the benchmark's own code.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import check_run  # noqa: E402
from tracer import PER_LAYER, Span, Target, Tracer, covered_length, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Expectation  # noqa: E402

A, B, C = 1, 2, 3  # thread ids


def _span(name, key, start, end, parent, thread, info=None):
    return Span(name, key, start, end, parent, thread, "t", info)


def _two_thread_tree():
    """A run on thread A whose two cells run on threads B and C."""
    return [
        _span("experiments.run_experiment", "experiments.run", 0.0, 10.0, None, A),  # 0
        _span("experiments.build_objective", "experiments.build_objective", 0.0, 1.0, 0, A),
        _span("metrics.compute_mstar_reference", "metrics.reference", 1.0, 2.0, 0, A),
        _span("experiments.run_cell", "experiments.cell", 2.0, 7.0, 0, B),  # 3
        _span("solvers.approximate_newton_run", "solvers.loop", 2.5, 6.5, 3, B, {"iters": 4}),
        _span("solvers.solve_inner", "solvers.solve", 3.0, 4.0, 4, B,
              {"mode": "cg", "iterations": 7}),
        _span("experiments.run_cell", "experiments.cell", 3.0, 9.0, 0, C),  # 6
        _span("solvers.approximate_newton_run", "solvers.loop", 3.0, 8.0, 6, C, {"iters": 6}),
    ]


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7), (4, 4)]) == 4.0
    assert covered_length([]) == 0.0


def test_self_time_over_two_threads():
    spans = _two_thread_tree()
    selfs = self_times(spans)
    # the run is covered by build, reference and the union of both cells
    assert selfs[0] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)  # cell 5 s minus its 4 s loop
    assert selfs[4] == pytest.approx(3.0)  # loop minus its solve
    assert selfs[6] == pytest.approx(1.0)
    # self times partition the run: they add up to its duration plus the
    # time the two cells overlap (2 threads busy at once from 3 to 7)
    assert sum(selfs) == pytest.approx(10.0 + 4.0)


def test_layer_metrics_on_hand_built_tree():
    m = layer_metrics(_two_thread_tree())
    assert m["experiments.emit_ms"] == pytest.approx(1000.0)
    assert m["experiments.cell_ms"] == pytest.approx(11000.0)
    assert m["experiments.cell_uncovered_frac"] == pytest.approx(2.0 / 11.0)
    # both cells were queued when the reference ended, at t = 2
    assert m["experiments.queue_wait_ms"] == pytest.approx(1000.0)
    assert m["experiments.pool_busy_frac"] == pytest.approx(11.0 / (2 * 7.0))
    assert m["experiments.pool_threads"] == 2
    assert m["solvers.newton_iters"] == 10
    assert m["solvers.ms_per_iter"] == pytest.approx(9000.0 / 10)
    assert m["solvers.loop_self_ms"] == pytest.approx(3000.0 + 5000.0)
    assert m["solvers.cg_solves"] == 1 and m["solvers.cg_iters"] == 7
    assert m["solvers.solve_ms"] == pytest.approx(1000.0)
    assert set(m) == set(PER_LAYER)


def test_nested_calls_of_one_key_count_once():
    spans = [
        _span("problems.hessian_sample_pool", "problems.sample_pool", 0.0, 2.0, None, A),
        _span("problems.support_indices", "problems.sample_pool", 0.5, 1.5, 0, A),
    ]
    m = layer_metrics(spans)
    assert m["problems.sample_pool_calls"] == 1
    assert m["problems.sample_pool_ms"] == pytest.approx(2000.0)


def test_absent_target_drops_its_metrics_and_run_goes_on():
    from approxnewton import solvers

    original = solvers.solve_inner
    targets = (
        Target("solvers.solve", "solvers", "solve_inner"),
        Target("solvers.gone", "solvers", "no_such_function"),
    )
    tracer = Tracer(targets)
    with tracer:
        assert solvers.solve_inner is not original
    assert solvers.solve_inner is original
    assert tracer.absent == {"solvers.no_such_function"}
    m = layer_metrics(_two_thread_tree(), absent={"solvers.solve_inner"})
    for metric in ("solvers.solve_ms", "solvers.cg_iters", "solvers.exact_solves"):
        assert metric not in m
    assert "solvers.newton_iters" in m


def test_tracer_records_real_calls():
    import numpy as np
    from approxnewton import solvers

    tracer = Tracer()
    with tracer:
        H = np.diag([2.0, 4.0])
        solvers.solve_inner(H, np.array([1.0, 1.0]), 0.1, 2.0, mode="cg")
    (solve,) = [s for s in tracer.spans if s.key == "solvers.solve"]
    assert solve.info["mode"] == "cg" and solve.info["iterations"] >= 1
    assert solve.end >= solve.start


def _write_run(out_dir, rows, last_grad=1e-9):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("tag,seed,status,iters,final_grad_mstar,rate_class,rho\n")
        for tag, seed, status, final, rate in rows:
            fh.write(f"{tag},{seed},{status},10,{final},{rate},\n")
            with open(os.path.join(out_dir, f"trace_{tag}.csv"), "w") as tr:
                tr.write("t,grad_norm,grad_mstar_norm,inner_residual,status\n")
                tr.write(f"0,{last_grad},,,{status}\n")


def _sketch_rows(**override):
    """One summary row per sketch_ls cell, with the predicted outcome."""
    rows = {}
    for label, want in WORKLOADS["sketch_ls"].predicted.items():
        rate = sorted(want.rate_classes)[0] if want.rate_classes else "linear"
        final = "1e-8" if want.status == "converged" else "1e9"
        rows[label] = (f"{label}_s0", 0, want.status, final, rate)
    rows.update(override)
    return list(rows.values())


def test_checker_accepts_expected_outcomes(tmp_path):
    _write_run(tmp_path, _sketch_rows())
    checks = check_run(str(tmp_path), WORKLOADS["sketch_ls"], [0], mstar_scale=10.0)
    assert len(checks) == 9 and all(c.ok for c in checks)


@pytest.mark.parametrize(
    "row, problem",
    [
        (("gaussian-l8d_s0", 0, "diverged", "1e9", "diverged"), "status"),
        (("gaussian-l8d_s0", 0, "converged", "1e-8", "superlinear"), "rate class"),
        (("gaussian-l8d_s0", 0, "converged", "1e-6", "linear"), "M*-residual"),
    ],
)
def test_checker_flags_wrong_outcome(tmp_path, row, problem):
    _write_run(tmp_path, _sketch_rows(**{"gaussian-l8d": row}))
    checks = check_run(str(tmp_path), WORKLOADS["sketch_ls"], [0], mstar_scale=10.0)
    bad = [c for c in checks if not c.ok]
    assert [c.label for c in bad] == ["gaussian-l8d"]
    assert problem in bad[0].problems[0]


def test_checker_flags_missing_run(tmp_path):
    rows = [r for r in _sketch_rows() if not r[0].startswith("leverage_score-l8d")]
    _write_run(tmp_path, rows)
    checks = check_run(str(tmp_path), WORKLOADS["sketch_ls"], [0], mstar_scale=10.0)
    assert [c.problems for c in checks if not c.ok] == [["missing from summary"]]


def test_recorded_expectation_overrides_prediction():
    seen = Expectation("converged", frozenset({"inconclusive"}))
    w = dataclasses.replace(WORKLOADS["svm_support"], recorded={("newton", 7): seen})
    assert w.expectation("newton", 7) == seen
    assert w.expectation("newton", 8) == w.predicted["newton"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_end_to_end(name):
    proc = _run(["--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", "0",
                 "--max-iters", "3"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[name].grid) * WORKLOADS[name].seeds_per_run
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_run_traced():
    proc = _run(["--workload", "spiked_subsampled", "--seed", "1", "--seconds", "0.01",
                 "--trace", "1", "--max-iters", "3"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["metrics"]["hessian_approx.builds"]["value"] > 0
    assert result["metrics"]["sketch.draw_calls"]["value"] == 0


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "sketch_ls", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
