"""Span tracing from outside the library, and per-layer metrics from spans.

The tracer replaces module attributes and objective-class methods with thin
wrappers that record a span (name, start, end, parent, thread, run tag)
around each call.  Each function is wrapped at the attribute its caller
resolves: `solvers` imports the sketch and surrogate constructors by name, so
those are wrapped as `solvers.<name>`; `hessian_approx.apply_sketch` is
wrapped where `sketched_hessian` looks it up.  Span stacks are
thread-local, because the harness runs cells on its own thread pool; a
span opened on a thread with an empty stack is parented to the outermost
open span (the `run_experiment` call), so cells hang under the run.

A target that no longer exists (renamed or removed by a refactor) is
skipped and every metric that depends on it is reported as absent, so the
run goes on.  Spans are kept in memory and turned into metrics when the
run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "approxnewton"
TRACER_KEY = "tracer.note"  # bookkeeping done by the tracer itself


@dataclass
class Span:
    name: str  # "<owner>.<attribute>" of the wrapped callable
    key: str  # metric key, "<layer>.<what>"
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.key.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- notes: per-call counts taken from the arguments or the result ----------


def _note_oblivious(args, result):
    return {"gaussian_entries": args["s"] * args["m"] if args["kind"] == "gaussian" else 0}


def _note_leverage(args, result):
    A = np.ascontiguousarray(args["A"], dtype=float)
    return {"factor": hashlib.blake2b(A.data, digest_size=16).hexdigest()}


def _note_solve(args, result):
    return {"mode": args["mode"], "iterations": int(result.iterations)}


def _note_run(args, result):
    return {"iters": int(result.n_steps)}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `owner` is a module name, or `problems:*` for
    every objective class in the problems module that defines `attr`."""

    key: str
    owner: str
    attr: str
    note: object = None

    @property
    def name(self) -> str:
        return f"{self.owner.removesuffix(':*')}.{self.attr}"


TARGETS = (
    Target("problems.gradient", "problems:*", "gradient"),
    Target("problems.full_hessian", "problems:*", "full_hessian"),
    Target("problems.sample_pool", "problems:*", "hessian_sample_pool"),
    Target("problems.sample_pool", "problems:*", "support_indices"),
    Target("problems.term_root", "problems:*", "hessian_term_root"),
    Target("problems.factor", "problems:*", "hessian_factor"),
    Target("sketch.draw", "solvers", "make_oblivious_sketch", _note_oblivious),
    Target("sketch.draw", "solvers", "make_leverage_sketch"),
    Target("sketch.draw", "sketch", "leverage_scores", _note_leverage),
    Target("sketch.apply", "hessian_approx", "apply_sketch"),
    Target("hessian_approx.sketched", "solvers", "sketched_hessian"),
    Target("hessian_approx.subsampled", "solvers", "subsampled_hessian"),
    Target("hessian_approx.subsampled", "hessian_approx", "subsampled_hessian"),
    Target("hessian_approx.newsamp", "solvers", "newsamp_hessian"),
    Target("solvers.solve", "solvers", "solve_inner", _note_solve),
    Target("solvers.loop", "solvers", "approximate_newton_run", _note_run),
    Target("solvers.loop", "metrics", "approximate_newton_run", _note_run),
    Target("solvers.loop", "solvers", "baseline_run", _note_run),
    Target("metrics.reference", "metrics", "compute_mstar_reference"),
    Target("metrics.mstar", "metrics", "fill_mstar_norms"),
    Target("metrics.classify", "metrics", "classify_rate"),
    Target("experiments.build_objective", "experiments", "build_objective"),
    Target("experiments.cell", "experiments", "run_cell"),
    Target("experiments.run", "experiments", "run_experiment"),
)

LAYERS = ("problems", "sketch", "hessian_approx", "solvers", "metrics", "experiments")


def _owners(owner: str) -> list:
    if owner.endswith(":*"):
        module = importlib.import_module(f"{PACKAGE}.{owner[:-2]}")
        return [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
    return [importlib.import_module(f"{PACKAGE}.{owner}")]


class Tracer:
    """Records spans around the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.run_tag = ""
        self.absent: set[str] = set()  # target names not found
        self.note_failed: set[str] = set()  # target names whose note broke
        self._local = threading.local()
        self._lock = threading.Lock()
        self._outermost: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key: str) -> int:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else self._outermost
            span = Span(name, key, time.perf_counter(), 0.0, parent,
                        threading.get_ident(), self.run_tag)
            self.spans.append(span)
            index = len(self.spans) - 1
            if parent is None:
                self._outermost = index
        stack.append(index)
        return index

    def end(self, index: int, info: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info = info
        self._stack().pop()
        if index == self._outermost:
            with self._lock:
                self._outermost = None

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, target: Target, fn):
        tracer = self
        signature = inspect.signature(fn) if target.note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(target.name, target.key)
            info = None
            try:
                result = fn(*args, **kwargs)
                if target.note is not None:
                    # the note's own cost is a child span, so it is kept
                    # out of the wrapped function's self time
                    note = tracer.begin(target.name, TRACER_KEY)
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        info = target.note(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, ValueError):
                        tracer.note_failed.add(target.name)
                    finally:
                        tracer.end(note)
                return result
            finally:
                tracer.end(index, info)

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            try:
                owners = _owners(target.owner)
            except ImportError:
                owners = []
            found = False
            for owner in owners:
                attrs = vars(owner)
                if target.attr not in attrs or not callable(attrs[target.attr]):
                    continue
                original = attrs[target.attr]
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(target, original))
                found = True
            if not found:
                self.absent.add(target.name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(spans: list[Span], fh, header: bool = True) -> None:
    """Append spans as CSV rows; `parent` is a row index within the same run."""
    if header:
        fh.write("run,index,name,key,start,end,parent,thread\n")
    for i, s in enumerate(spans):
        parent = "" if s.parent is None else s.parent
        fh.write(f"{s.run},{i},{s.name},{s.key},{s.start!r},{s.end!r},{parent},{s.thread}\n")


# -- self time and metrics ----------------------------------------------------


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run on other threads and overlap each other (cells on the
    harness pool), so the covered part is the union of their intervals,
    clipped to the parent's.
    """
    children = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        ]
        out.append(span.duration - covered_length(clipped))
    return out


def _has_ancestor(spans: list[Span], index: int, key: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].key == key:
            return True
        parent = spans[parent].parent
    return False


_OBLIVIOUS = "solvers.make_oblivious_sketch"
_LEVERAGE = "sketch.leverage_scores"
_SOLVE = "solvers.solve_inner"
_LOOP = "solvers.approximate_newton_run"
_CELL = "experiments.run_cell"

# metric -> (unit, target names it is computed from, whether it is read from
# per-call notes).  A metric is left out when one of its targets was not
# found, or, for a noted metric, when the note could not be taken because
# the function's arguments or result changed.
PER_LAYER = {
    "problems.busy_ms": ("ms", (), False),
    "problems.gradient_ms": ("ms", ("problems.gradient",), False),
    "problems.gradient_calls": ("count", ("problems.gradient",), False),
    "problems.full_hessian_ms": ("ms", ("problems.full_hessian",), False),
    "problems.full_hessian_calls": ("count", ("problems.full_hessian",), False),
    "problems.sample_pool_ms": ("ms", ("problems.hessian_sample_pool",), False),
    "problems.sample_pool_calls": ("count", ("problems.hessian_sample_pool",), False),
    "problems.term_root_ms": ("ms", ("problems.hessian_term_root",), False),
    "sketch.busy_ms": ("ms", (), False),
    "sketch.draw_ms": ("ms", (_OBLIVIOUS, "solvers.make_leverage_sketch"), False),
    "sketch.draw_calls": ("count", (_OBLIVIOUS, "solvers.make_leverage_sketch"), False),
    "sketch.gaussian_entries": ("count", (_OBLIVIOUS,), True),
    "sketch.leverage_svds": ("count", (_LEVERAGE,), False),
    "sketch.leverage_factors": ("count", (_LEVERAGE,), True),
    "sketch.apply_ms": ("ms", ("hessian_approx.apply_sketch",), False),
    "hessian_approx.busy_ms": ("ms", (), False),
    "hessian_approx.sketched_ms": ("ms", ("solvers.sketched_hessian",), False),
    "hessian_approx.subsampled_ms": ("ms", ("solvers.subsampled_hessian",), False),
    "hessian_approx.newsamp_ms": ("ms", ("solvers.newsamp_hessian",), False),
    "hessian_approx.builds": (
        "count", ("solvers.sketched_hessian", "solvers.subsampled_hessian"), False),
    "solvers.busy_ms": ("ms", (), False),
    "solvers.solve_ms": ("ms", (_SOLVE,), False),
    "solvers.exact_solves": ("count", (_SOLVE,), True),
    "solvers.cg_solves": ("count", (_SOLVE,), True),
    "solvers.cg_iters": ("count", (_SOLVE,), True),
    "solvers.newton_iters": ("count", (_LOOP,), True),
    "solvers.ms_per_iter": ("ms", (_LOOP,), True),
    "solvers.loop_self_ms": ("ms", (_LOOP,), False),
    "metrics.busy_ms": ("ms", (), False),
    "metrics.reference_ms": ("ms", ("metrics.compute_mstar_reference",), False),
    "metrics.mstar_ms": ("ms", ("metrics.fill_mstar_norms",), False),
    "metrics.classify_ms": ("ms", ("metrics.classify_rate",), False),
    "experiments.busy_ms": ("ms", (), False),
    "experiments.build_objective_ms": ("ms", ("experiments.build_objective",), False),
    "experiments.cell_ms": ("ms", (_CELL,), False),
    "experiments.cell_uncovered_frac": ("fraction", (_CELL,), False),
    "experiments.queue_wait_ms": ("ms", (_CELL,), False),
    "experiments.emit_ms": ("ms", ("experiments.run_experiment",), False),
    "experiments.pool_busy_frac": ("fraction", (_CELL,), False),
    "experiments.pool_threads": ("count", (_CELL,), False),
}
# self-time metrics: metric -> span key
_SELF_MS = {
    "problems.gradient_ms": "problems.gradient",
    "problems.full_hessian_ms": "problems.full_hessian",
    "problems.sample_pool_ms": "problems.sample_pool",
    "problems.term_root_ms": "problems.term_root",
    "sketch.draw_ms": "sketch.draw",
    "sketch.apply_ms": "sketch.apply",
    "hessian_approx.sketched_ms": "hessian_approx.sketched",
    "hessian_approx.subsampled_ms": "hessian_approx.subsampled",
    "hessian_approx.newsamp_ms": "hessian_approx.newsamp",
    "solvers.solve_ms": "solvers.solve",
    "solvers.loop_self_ms": "solvers.loop",
    "metrics.reference_ms": "metrics.reference",
    "metrics.mstar_ms": "metrics.mstar",
    "metrics.classify_ms": "metrics.classify",
    "experiments.build_objective_ms": "experiments.build_objective",
    "experiments.emit_ms": "experiments.run",
}
_SURROGATES = ("hessian_approx.sketched", "hessian_approx.subsampled", "hessian_approx.newsamp")


def _present(metric: str, absent, note_failed) -> bool:
    _, needs, noted = PER_LAYER[metric]
    return not any(n in absent or (noted and n in note_failed) for n in needs)


def layer_metrics(
    spans: list[Span], absent=frozenset(), note_failed=frozenset()
) -> dict[str, float]:
    """Per-layer metrics of the spans of traced `run_experiment` calls.

    `*_ms` metrics are self times in milliseconds, summed over spans and
    threads, except `experiments.cell_ms` (whole cell durations) and
    `solvers.ms_per_iter` (cell Newton-loop time per step).
    `*_calls` count outermost calls: a span whose parent has the same key
    (the support-set lookup inside the sample pool) is not counted again.
    `<layer>.busy_ms` is the self time of every span of the layer.
    """
    selfs = self_times(spans)
    key_ms = defaultdict(float)
    layer_ms = defaultdict(float)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        key_ms[span.key] += selfs[i] * 1e3
        layer_ms[span.layer] += selfs[i] * 1e3
        if span.parent is None or spans[span.parent].key != span.key:
            calls[span.key] += 1

    def noted(name):
        return [s.info for s in spans if s.name == name and s.key != TRACER_KEY and s.info]

    out = {f"{layer}.busy_ms": layer_ms[layer] for layer in LAYERS}
    out.update({metric: key_ms[key] for metric, key in _SELF_MS.items()})
    for what in ("gradient", "full_hessian", "sample_pool"):
        out[f"problems.{what}_calls"] = calls[f"problems.{what}"]
    out["sketch.draw_calls"] = calls["sketch.draw"]

    out["sketch.gaussian_entries"] = sum(i["gaussian_entries"] for i in noted(_OBLIVIOUS))
    leverage = [s for s in spans if s.name == _LEVERAGE and s.key != TRACER_KEY]
    out["sketch.leverage_svds"] = len(leverage)
    out["sketch.leverage_factors"] = len({s.info["factor"] for s in leverage if s.info})
    out["hessian_approx.builds"] = sum(
        1 for s in spans
        if s.key in _SURROGATES and (s.parent is None or spans[s.parent].key not in _SURROGATES)
    )

    solves = noted(_SOLVE)
    out["solvers.exact_solves"] = sum(1 for info in solves if info["mode"] == "exact")
    cg = [info["iterations"] for info in solves if info["mode"] == "cg"]
    out["solvers.cg_solves"] = len(cg)
    out["solvers.cg_iters"] = sum(cg)
    # Newton loops run by cells, not the reference run of the set-up
    runs = [
        i for i, s in enumerate(spans)
        if s.name == _LOOP and s.info and _has_ancestor(spans, i, "experiments.cell")
    ]
    iters = sum(spans[i].info["iters"] for i in runs)
    out["solvers.newton_iters"] = iters
    run_ms = sum(spans[i].duration for i in runs) * 1e3
    out["solvers.ms_per_iter"] = run_ms / iters if iters else 0.0

    out.update(_pool_metrics(spans, selfs))
    return {m: out[m] for m in PER_LAYER if _present(m, absent, note_failed)}


def _pool_metrics(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """Cell time, its uncovered share, and how the harness pool was used.

    A cell is queued when the last step of its `run_experiment` call that
    ends before the first cell starts (the reference computation) ends;
    its queue wait is the time from then until it starts.  The pool's busy
    share is the summed cell time over (threads seen running cells x time
    from queueing to the last cell's end).
    """
    cells = [i for i, s in enumerate(spans) if s.key == "experiments.cell"]
    cell_s = sum(spans[i].duration for i in cells)
    waits, busy, wall, threads = 0.0, 0.0, 0.0, set()
    children = children_of(spans)
    for run in (i for i, s in enumerate(spans) if s.key == "experiments.run"):
        kids = children.get(run, [])
        run_cells = [c for c in kids if spans[c].key == "experiments.cell"]
        if not run_cells:
            continue
        first = min(spans[c].start for c in run_cells)
        queued = max(
            (spans[c].end for c in kids
             if spans[c].key != "experiments.cell" and spans[c].end <= first),
            default=spans[run].start,
        )
        waits += sum(spans[c].start - queued for c in run_cells)
        run_threads = {spans[c].thread for c in run_cells}
        threads |= run_threads
        busy += sum(spans[c].duration for c in run_cells)
        wall += len(run_threads) * (max(spans[c].end for c in run_cells) - queued)
    return {
        "experiments.cell_ms": cell_s * 1e3,
        "experiments.cell_uncovered_frac": (
            sum(selfs[i] for i in cells) / cell_s if cell_s else 0.0
        ),
        "experiments.queue_wait_ms": waits * 1e3,
        "experiments.pool_busy_frac": busy / wall if wall else 0.0,
        "experiments.pool_threads": len(threads),
    }
