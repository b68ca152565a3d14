#!/usr/bin/env python3
"""approxnewton benchmark: one experiment workload per run, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload sketch_ls --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 42 --trace 0

A run builds the workload's experiment config for the run seeds that
`--seed` selects (see workloads.py), times the set-up (objective build and
M* reference) several times, then calls `experiments.run_experiment` as
often as `--seconds` allows, checking every (cell, seed) outcome.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced calls and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.  `--workload all` runs each workload in its own process and
prints a table.

The package is imported from `src/` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# set-up is timed at least SETUP_MIN_REPS times, and more while it has used
# less than SETUP_SHARE of the run's seconds, up to SETUP_MAX_REPS
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 21
SETUP_SHARE = 0.15
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACING = {"tracing.overhead_s": "s"}
RUN_TIMEOUT_S = 170


def _import_package():
    """Import approxnewton from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "approxnewton", "__init__.py")
    if not os.path.isfile(init):
        print(f"benchmark: no package at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import approxnewton

    if os.path.dirname(os.path.abspath(approxnewton.__file__)) != os.path.dirname(init):
        print(f"benchmark: approxnewton imported from {approxnewton.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _blas_info() -> dict:
    """OpenBLAS builds and thread counts of numpy's and scipy's BLAS."""
    import ctypes
    import glob

    import numpy
    import scipy

    info = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            entry = {}
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode().strip()
            if entry:
                info[pkg.__name__] = entry
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    info["env"] = env
    return info


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    jobs = len(workload.grid) * workload.seeds_per_run
    return {
        "workload": workload.name,
        "seed": seed,
        "run_seeds": workload.run_seeds(seed),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        # the harness rule when `workers` is unset: min(cpu_count, jobs)
        "harness_workers": min(os.cpu_count() or 1, jobs),
    }


class Bench:
    """One workload at one seed: set-up timing, timed calls, outcome checks."""

    def __init__(self, workload, seed: int, max_iters: int | None = None):
        self.workload = workload
        self.seed = seed
        self.max_iters = max_iters
        self.seeds = workload.run_seeds(seed)
        self.out_dir = os.path.join(OUT_ROOT, f"{workload.name}-s{seed}-p{os.getpid()}")
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.mstar_scale = None
        self._calls = 0

    def setup(self, min_reps: int, budget_s: float = 0.0, max_reps: int = 1) -> list[float]:
        """Time objective build + M* reference: `min_reps` times, then
        again while the total stays under `budget_s`, up to `max_reps`."""
        import numpy as np
        from approxnewton import experiments, metrics

        times = []
        while len(times) < min_reps or (sum(times) < budget_s and len(times) < max_reps):
            tic = time.perf_counter()
            obj = experiments.build_objective(dict(self.workload.problem))
            ref = metrics.compute_mstar_reference(obj, np.zeros(obj.d))
            times.append(time.perf_counter() - tic)
        # ||M*^{1/2}||_2 turns the gradient tolerance into an M*-residual bound
        self.mstar_scale = float(np.linalg.norm(ref.mstar_half, 2))
        return times

    def call(self) -> float:
        """One `run_experiment` call; returns its wall time in seconds."""
        from approxnewton import experiments
        from check import check_run, csv_digest

        out = os.path.join(self.out_dir, f"call{self._calls}")
        self._calls += 1
        cfg = self.workload.config(self.seed, out, self.max_iters)
        tic = time.perf_counter()
        code = experiments.run_experiment(cfg)
        wall = time.perf_counter() - tic
        if code != 0:
            self.failures.append(f"run_experiment returned {code}")
        checks = check_run(
            out, self.workload, self.seeds, self.mstar_scale, capped=self.max_iters is not None
        )
        self.attempted += len(checks)
        self.failures += [f"{c.tag}: {'; '.join(c.problems)}" for c in checks if not c.ok]
        self.digests.add(csv_digest(out))
        shutil.rmtree(out)
        return wall

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _timed_calls(deadline: float, call) -> list:
    """Repeat `call` at least once, and again while one as slow as the
    slowest so far still ends by the deadline."""
    results, slowest = [], 0.0
    while True:
        tic = time.perf_counter()
        results.append(call())
        slowest = max(slowest, time.perf_counter() - tic)
        if time.perf_counter() + slowest > deadline:
            return results


def run_end_to_end(bench: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    setups = bench.setup(SETUP_MIN_REPS, SETUP_SHARE * seconds, SETUP_MAX_REPS)
    walls = _timed_calls(start + seconds, bench.call)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{bench.workload.name}: wall_s samples {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"{bench.workload.name}: setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")
    print("samples: " + json.dumps({"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1}))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def run_traced(bench: Bench, seconds: float) -> dict:
    from tracer import LAYERS, Tracer, layer_metrics, write_spans

    start = time.perf_counter()
    bench.setup(1)
    plain, traced, per_call = [], [], []
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"spans_{bench.workload.name}_s{bench.seed}.csv")
    spans_file = open(spans_path, "w")

    def pair():
        plain.append(bench.call())
        tracer = Tracer()
        tracer.run_tag = f"call{len(traced)}"
        with tracer:
            traced.append(bench.call())
        write_spans(tracer.spans, spans_file, header=not per_call)
        per_call.append(layer_metrics(tracer.spans, tracer.absent, tracer.note_failed))
        return tracer.absent | tracer.note_failed

    with spans_file:
        missing = set().union(*_timed_calls(start + seconds, pair))
    print(f"{bench.workload.name}: spans written to {os.path.relpath(spans_path, ROOT)}")
    names = sorted(set().union(*per_call))
    out = {name: statistics.median(m[name] for m in per_call if name in m) for name in names}
    out["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    busy = {layer: out.get(f"{layer}.busy_ms", 0.0) for layer in LAYERS}
    total = sum(busy.values()) or 1.0
    print(f"{bench.workload.name}: layer shares of busy time: "
          + ", ".join(f"{layer} {ms / total:.1%}" for layer, ms in busy.items()))
    if missing:
        print(f"{bench.workload.name}: absent trace targets: {sorted(missing)}")
    print(
        f"{bench.workload.name}: {len(traced)} traced / {len(plain)} untraced calls, "
        f"wall_s traced {statistics.median(traced):.4f} untraced {statistics.median(plain):.4f}"
    )
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool, max_iters: int | None) -> int:
    _import_package()
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    units = {**END_TO_END, **TRACING, **{m: spec[0] for m, spec in PER_LAYER.items()}}

    workload = WORKLOADS[name]
    print("env: " + json.dumps(environment(workload, seed), sort_keys=True))
    bench = Bench(workload, seed, max_iters)
    try:
        values = run_traced(bench, seconds) if trace else run_end_to_end(bench, seconds)
    finally:
        bench.close()
    for failure in sorted(set(bench.failures)):
        print(f"check failed ({bench.failures.count(failure)} calls): {failure}")
    print(
        f"{name}: runs_failed {len(bench.failures)}/{bench.attempted}; "
        f"csv digest {', '.join(sorted(bench.digests))}"
    )
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool, max_iters: int | None) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import NAMES

    rows, code = [], 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if max_iters is not None:
            cmd += ["--max-iters", str(max_iters)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            code = 1
            continue
        samples = {}
        for line in lines:
            if line.startswith("samples: "):
                samples = json.loads(line.removeprefix("samples: "))
        rows.append((name, json.loads(lines[-1]), samples))
    print()
    for name, result, samples in rows:
        print(f"{name}: runs_failed {result['failed']}/{result['attempted']} "
              f"correct={result['correct']}")
        for metric, m in result["metrics"].items():
            n = f"n={samples[metric]}" if metric in samples else ""
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']:8s} {n}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sketch_ls | spiked_subsampled | svm_support | all")
    parser.add_argument("--seed", type=int, default=0, help="selects the run seeds")
    parser.add_argument("--seconds", type=float, default=42.0, help="time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--max-iters", type=int, default=None,
                        help="cap every cell's iterations (smoke runs); capped runs "
                             "are only checked for finishing without error")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.max_iters)
    from workloads import NAMES

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {NAMES} or all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.max_iters)


if __name__ == "__main__":
    sys.exit(main())
