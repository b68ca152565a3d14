"""Outcome check of one workload run, read back from the harness's CSVs.

A (cell, seed) run passes when its status equals the expected status, its
rate class is one of the accepted classes (where the class is gated), and,
when it converged, its trace ends with the gradient norm under the cell
tolerance and the final M*-residual under the bound that tolerance implies,
tol * ||M*^{1/2}||_2 (the M*-norm of a gradient is at most that factor
times its Euclidean norm).

The digest of the deterministic CSVs (`summary.csv`, `trace_*.csv`) is
reported for information only: it shows whether a change kept the outputs
byte-identical.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import os
from dataclasses import dataclass

from workloads import STATUS_CONVERGED, Workload

_SLACK = 1.0 + 1e-9  # rounding room on the tolerance comparisons


@dataclass
class RunCheck:
    tag: str
    label: str
    seed: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def read_summary(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def last_grad_norm(out_dir: str, tag: str) -> float | None:
    path = os.path.join(out_dir, f"trace_{tag}.csv")
    if not os.path.isfile(path):
        return None
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["grad_norm"]) if rows else None


def check_row(
    row: dict, workload: Workload, mstar_scale: float, last_grad: float | None,
    capped: bool = False,
) -> RunCheck:
    """Check one summary row; `mstar_scale` is ||M*^{1/2}||_2.

    A run whose iterations were capped below the workload's budget is only
    checked for finishing without error.
    """
    seed = int(row["seed"])
    label = row["tag"].removesuffix(f"_s{seed}")
    problems = []
    if label not in workload.predicted:
        return RunCheck(row["tag"], label, seed, [f"unknown cell {label!r}"])
    status, rate = row["status"], row["rate_class"]
    if capped:
        if status.startswith("error:"):
            problems.append(f"status {status!r}")
        return RunCheck(row["tag"], label, seed, problems)
    want = workload.expectation(label, seed)
    if status != want.status:
        problems.append(f"status {status!r}, expected {want.status!r}")
    if want.rate_classes is not None and rate not in want.rate_classes:
        problems.append(f"rate class {rate!r}, expected one of {sorted(want.rate_classes)}")
    if status == STATUS_CONVERGED:
        cell = next(c for c in workload.grid if c["label"] == label)
        tol = cell.get("grad_tol", workload.grad_tol)
        if last_grad is None or not last_grad <= tol * _SLACK:
            problems.append(f"final gradient norm {last_grad} above tolerance {tol:g}")
        final = float(row["final_grad_mstar"]) if row["final_grad_mstar"] else None
        if final is None or not final <= tol * mstar_scale * _SLACK:
            problems.append(
                f"final M*-residual {final} above {tol * mstar_scale:.3e}"
            )
    return RunCheck(row["tag"], label, seed, problems)


def check_run(
    out_dir: str, workload: Workload, seeds: list[int], mstar_scale: float,
    capped: bool = False,
) -> list[RunCheck]:
    """Check every (cell, seed) run of one `run_experiment` call.

    Returns one RunCheck per expected run; a run missing from the summary
    fails.
    """
    rows = {row["tag"]: row for row in read_summary(out_dir)}
    checks = []
    for cell in workload.grid:
        for seed in seeds:
            tag = f"{cell['label']}_s{seed}"
            row = rows.pop(tag, None)
            if row is None:
                checks.append(RunCheck(tag, cell["label"], seed, ["missing from summary"]))
            else:
                checks.append(
                    check_row(row, workload, mstar_scale, last_grad_norm(out_dir, tag), capped)
                )
    for tag in rows:
        checks.append(RunCheck(tag, "", -1, ["unexpected summary row"]))
    return checks


def csv_digest(out_dir: str) -> str:
    """Digest of summary.csv and every trace_*.csv, in name order."""
    h = hashlib.sha256()
    paths = [os.path.join(out_dir, "summary.csv")]
    paths += sorted(glob.glob(os.path.join(out_dir, "trace_*.csv")))
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]
